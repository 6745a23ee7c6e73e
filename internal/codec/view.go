package codec

import (
	"strings"
	"time"

	"rebeca/internal/filter"
	"rebeca/internal/message"
)

// NoteView reads an encoded notification — a relay-form publish's RawNote —
// where it lies: its ID, publish time and attributes, with no map and no
// string built. Every string it hands out (the publisher ID, attribute
// names, string values) aliases the bytes. That is sound because RawNote is
// a copy the message owns and nobody modifies; it also means a string kept
// from a view keeps the whole note's bytes alive, so code that stores one
// past the publish copies it (Interner.Intern).
//
// ViewNote trusts its bytes to be one well-formed note — the relay decode
// checked them, AppendNote wrote them. On anything else a view never
// panics; it reads as far as the bytes make sense.
type NoteView struct {
	b         []byte
	id        message.NotificationID
	published time.Time
	attrs     int // offset of the first attribute in b
	n         int // attribute count
}

// ViewNote reads the header of an encoded note.
func ViewNote(b []byte) NoteView {
	r := reader{data: b, alias: true}
	v := NoteView{b: b}
	v.id, v.published, v.n = r.noteHead()
	v.attrs = r.off
	if r.err != nil {
		return NoteView{}
	}
	return v
}

// ID returns the note's ID; its Publisher aliases the view's bytes.
func (v NoteView) ID() message.NotificationID { return v.id }

// Published returns the note's publish time.
func (v NoteView) Published() time.Time { return v.published }

// AppendAttrs appends the note's attributes to dst, in encoded order — the
// accessor the matching index and the routing table run on.
func (v NoteView) AppendAttrs(dst filter.Attrs) filter.Attrs {
	r := reader{data: v.b, off: v.attrs, alias: true}
	for i := 0; i < v.n && r.err == nil; i++ {
		name := r.str()
		val := r.value()
		if r.err == nil {
			dst = append(dst, filter.Attr{Name: name, Val: val})
		}
	}
	return dst
}

// Get returns the named attribute.
func (v NoteView) Get(name string) (message.Value, bool) {
	r := reader{data: v.b, off: v.attrs, alias: true}
	for i := 0; i < v.n && r.err == nil; i++ {
		match := string(r.bytes()) == name
		val := r.value()
		if match && r.err == nil {
			return val, true
		}
	}
	return message.Value{}, false
}

// Notification builds the note as a Notification of its own, its strings
// copied out of the view's bytes — the names through names when it is not
// nil.
func (v NoteView) Notification(names *Interner) message.Notification {
	r := reader{data: v.b, names: names}
	var n message.Notification
	r.note(&n)
	return n
}

// Interner hands out one shared copy of each short string a decode meets
// again and again — node and publisher IDs, attribute names, matched
// subscription IDs — so building the thousandth note from one publisher
// allocates none of them. It is bounded: once it holds internCap strings it
// starts over empty, and a string it does not hold is allocated, as it
// would be without an Interner. The zero value is ready to use. Not safe
// for concurrent use: a Decoder has one for its connection, a broker one
// for the relay-form notes it builds.
type Interner struct {
	m map[string]string
}

const (
	// internCap bounds an Interner's table (a few tens of KB at most).
	internCap = 1024
	// internMaxLen is the longest string worth keeping.
	internMaxLen = 64
)

// bytes returns the interned string equal to b.
func (in *Interner) bytes(b []byte) string {
	if s, ok := in.m[string(b)]; ok { // a lookup by string(b) does not allocate
		return s
	}
	s := string(b)
	in.keep(s)
	return s
}

// Intern returns a string equal to s that shares no memory with s: the kept
// copy when there is one. It is how a broker stores an ID a NoteView handed
// it without keeping the note's bytes alive.
func (in *Interner) Intern(s string) string {
	if k, ok := in.m[s]; ok {
		return k
	}
	c := strings.Clone(s)
	in.keep(c)
	return c
}

func (in *Interner) keep(s string) {
	switch {
	case len(s) > internMaxLen:
		return
	case in.m == nil:
		in.m = make(map[string]string)
	case len(in.m) >= internCap:
		clear(in.m)
	}
	in.m[s] = s
}
