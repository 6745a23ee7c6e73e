// Package codec implements the binary wire protocol of the live transport:
// a hand-rolled, length-prefixed encoding of proto.Message with explicit
// encode/decode for every message kind, attribute value and filter
// constraint. It replaces the reflective per-envelope gob encoding on the
// publish hot path — the paper's broker network pays serialization on every
// hop, so the frame format is designed for cheap, allocation-light encoding
// (pooled scratch buffers, varint integers, no type descriptors on the
// wire).
//
// # Frame format (version 1)
//
//	frame   := length:uint32le payload
//	payload := kind:uvarint flags:byte
//	           from origin dest client:string
//	           [note:notification]          (flags&1)
//	           notes:list<notification>
//	           subIDs:list<string>
//	           credits:varint
//	           [sub:subscription]           (flags&2)
//	           subs:list<subscription>
//	           retired:list<subscription>
//	           watermarks:list<string uvarint>
//	           reserved:uvarint epoch:uvarint hops:varint
//	           [path:list<string uint64le>] (flags&16, version 2)
//
// flags: 1 = Note present, 2 = Sub present, 4 = Stale, 8 = Fresh,
// 16 = the note carries a telemetry hop trail (version 2). Version 1
// decoders reject unknown flag bits, so a version-2 encoder only sets the
// traced bit on links whose handshake negotiated version ≥ 2 — the trail
// is stripped for older peers. reserved is written 0 and skipped on
// decode: it held a handover flush wave's ID, a protocol since retired.
// retired is written empty and its entries are read and discarded: it
// held a sync handshake's advertisement table, also retired.
// Strings are uvarint-length prefixed; lists are uvarint-count prefixed;
// varint is the zig-zag signed encoding. A notification is
// publisher+seq+timestamp+attribute list; a value is a one-byte kind tag
// plus its payload; a filter travels as its canonical constraint list.
//
// Decoding is defensive end to end: every read is bounds-checked, list
// counts are validated against the remaining payload before any
// allocation, and a torn or truncated frame yields an error — never a
// panic — so a malformed peer cannot take a broker down. A note that
// repeats an attribute name is refused: an encoder writes a note from its
// attribute map, so no legitimate frame does, and a note read in place
// (below) can take every name it lists as unique.
//
// # The relay form
//
// Most brokers a notification crosses only match it and forward it. A
// broker's links therefore decode a KPublish with DecodeRelay: the header
// and trailer are decoded as usual, but the note stays encoded, in
// proto.Message.RawNote, and AppendMessage copies those bytes verbatim into
// the forwarded frame. RawNote is the decoder's one allocation per such
// frame: a copy the message owns, because the decoder reuses its read
// buffer, and which nobody modifies afterwards. NoteView reads the ID and
// the attributes off those bytes for matching, with strings that alias
// them instead of copies; NoteView.Notification builds the Notification a
// local delivery or a publish stage needs. Traced notes (the flags-16 hop
// trail) and KPublishBatch are always decoded whole.
//
// Decodes that build notifications intern the short strings they repeat —
// node and publisher IDs, attribute names, matched subscription IDs — in a
// bounded table per Decoder (Interner), so the thousandth note from a
// publisher allocates none of them.
//
// The codec is versioned by the link handshake (see internal/wire): the
// hello frame carries Magic and Version, and peers agree on the minimum.
// This codec is the only wire encoding — the gob fallback of early
// releases is gone, and a peer that does not open with Magic is refused
// with a diagnosis instead of negotiated down.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
	"unsafe"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Version is the binary protocol version negotiated by the link handshake.
// Peers agree on min(theirs, ours). Version 2 added the traced flags bit
// carrying a notification's hop trail.
const Version byte = 2

// Magic opens a binary hello frame; it lets an accepting side distinguish
// a binary peer from a legacy gob peer on the first bytes of the stream.
var Magic = [4]byte{'R', 'B', 'C', 'W'}

// MaxFrame bounds a frame payload. A decoder rejects larger length
// prefixes outright instead of allocating attacker-controlled buffers;
// an encoder refuses to emit one (the transport escalates that to a link
// failure — see wire.Conn.Send — rather than dropping it silently). The
// bound leaves generous headroom over the largest legitimate frame, a
// KSyncInstall replaying a whole routing table.
const MaxFrame = 64 << 20

// value kind tags on the wire.
const (
	tagInvalid byte = iota
	tagString
	tagInt
	tagFloat
	tagTrue
	tagFalse
)

// message flag bits.
const (
	flagNote byte = 1 << iota
	flagSub
	flagStale
	flagFresh
	// flagTraced marks a Note carrying a telemetry hop trail (version 2).
	// Version 1 peers reject unknown bits, so encoders only set it on
	// links negotiated at version ≥ 2.
	flagTraced
)

// framePool recycles encode scratch across connections: a broker encodes
// on many links concurrently, and steady-state publishing should not
// allocate per frame.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// Encoder writes length-prefixed binary frames to w. Not safe for
// concurrent use; callers serialize (the wire transport holds a per-conn
// send lock).
type Encoder struct {
	w       io.Writer
	ver     byte
	onFrame func(bytes int)
}

// NewEncoder returns an encoder writing frames to w at the current
// protocol version. Pair it with a buffered writer: the encoder issues
// exactly one Write per message.
func NewEncoder(w io.Writer) *Encoder { return NewEncoderVersion(w, Version) }

// NewEncoderVersion returns an encoder emitting frames a peer negotiated
// at ver can decode: fields and flag bits introduced in later versions are
// stripped (a version-1 link never sees the traced bit). ver is clamped to
// [1, Version].
func NewEncoderVersion(w io.Writer, ver byte) *Encoder {
	if ver < 1 {
		ver = 1
	}
	if ver > Version {
		ver = Version
	}
	return &Encoder{w: w, ver: ver}
}

// OnFrame registers an observer of encoded frame sizes (payload + length
// prefix, in bytes), called after every successful Encode — the telemetry
// feed for frame-size histograms. Set before the encoder is shared; not
// synchronized with Encode.
func (e *Encoder) OnFrame(fn func(bytes int)) { e.onFrame = fn }

// Encode writes one message as a single frame.
func (e *Encoder) Encode(m proto.Message) error {
	if e.ver < 2 && m.Note != nil && len(m.Note.Path) > 0 {
		// The peer's decoder predates the traced bit: forward the
		// notification without its hop trail rather than poisoning the
		// link with a flag the peer rejects.
		n := *m.Note
		n.Path = nil
		m.Note = &n
	}
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf = AppendMessage(buf, &m)
	n := len(buf) - 4
	if n > MaxFrame {
		*bp = buf
		framePool.Put(bp)
		return fmt.Errorf("codec: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	_, err := e.w.Write(buf)
	total := len(buf)
	*bp = buf
	framePool.Put(bp)
	if err == nil && e.onFrame != nil {
		e.onFrame(total)
	}
	return err
}

// Decoder reads length-prefixed binary frames from r. The payload buffer
// is reused across Decode calls; decoded messages never alias it. Not safe
// for concurrent use.
type Decoder struct {
	r     io.Reader
	hdr   [4]byte
	buf   []byte
	names Interner
	// small counts consecutive frames fitting shrinkCap; once a long run
	// shows the conn is back to steady-state traffic, an oversized buffer
	// (grown by one big routing replay, up to MaxFrame) is released
	// instead of staying pinned for the conn's lifetime.
	small int
}

// Decoder buffer shrink policy: drop an over-grown payload buffer after
// shrinkAfter consecutive frames at or below shrinkCap.
const (
	shrinkCap   = 64 << 10
	shrinkAfter = 256
)

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads the next frame into m. io.EOF is returned only at a clean
// frame boundary; a frame torn mid-payload yields io.ErrUnexpectedEOF.
func (d *Decoder) Decode(m *proto.Message) error { return d.decode(m, false) }

// DecodeRelay is Decode for a broker's links: an untraced KPublish comes
// back in the relay form (Note nil, the note's bytes in RawNote; see the
// package doc), every other frame as Decode returns it.
func (d *Decoder) DecodeRelay(m *proto.Message) error { return d.decode(m, true) }

func (d *Decoder) decode(m *proto.Message, relay bool) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	// Bounds-check in uint32 space before converting: on 32-bit platforms
	// a length >= 2^31 would wrap negative as int and slip past the guard
	// into a panicking slice expression.
	n32 := binary.LittleEndian.Uint32(d.hdr[:])
	if n32 > MaxFrame {
		return fmt.Errorf("codec: frame of %d bytes exceeds limit", n32)
	}
	n := int(n32)
	if n > shrinkCap {
		d.small = 0
	} else if cap(d.buf) > shrinkCap {
		if d.small++; d.small >= shrinkAfter {
			d.buf = nil
			d.small = 0
		}
	}
	if cap(d.buf) < n {
		c := n
		if c < 1024 {
			c = 1024
		}
		d.buf = make([]byte, c)
	}
	buf := d.buf[:n]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	msg, err := decodeMessage(buf, &d.names, relay)
	if err != nil {
		return err
	}
	*m = msg
	return nil
}

// --- encoding ----------------------------------------------------------

// AppendMessage appends the payload encoding of m (no length prefix). A
// relay-form note (RawNote) is copied as it is; when a message carries both
// forms, Note is the one encoded.
func AppendMessage(b []byte, m *proto.Message) []byte {
	b = binary.AppendUvarint(b, uint64(m.Kind))
	var flags byte
	switch {
	case m.Note != nil:
		flags |= flagNote
		if len(m.Note.Path) > 0 {
			flags |= flagTraced
		}
	case m.RawNote != nil:
		flags |= flagNote
	}
	if m.Sub != nil {
		flags |= flagSub
	}
	if m.Stale {
		flags |= flagStale
	}
	if m.Fresh {
		flags |= flagFresh
	}
	b = append(b, flags)
	b = appendString(b, string(m.From))
	b = appendString(b, string(m.Origin))
	b = appendString(b, string(m.Dest))
	b = appendString(b, string(m.Client))
	if m.Note != nil {
		b = AppendNote(b, m.Note)
	} else if m.RawNote != nil {
		b = append(b, m.RawNote...)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Notes)))
	for i := range m.Notes {
		b = AppendNote(b, &m.Notes[i])
	}
	b = binary.AppendUvarint(b, uint64(len(m.SubIDs)))
	for _, id := range m.SubIDs {
		b = appendString(b, string(id))
	}
	b = binary.AppendVarint(b, int64(m.Credits))
	if m.Sub != nil {
		b = appendSubscription(b, *m.Sub)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Subs)))
	for _, s := range m.Subs {
		b = appendSubscription(b, s)
	}
	b = append(b, 0) // retired: an empty advertisement list
	b = binary.AppendUvarint(b, uint64(len(m.Watermarks)))
	for node, seq := range m.Watermarks {
		b = appendString(b, string(node))
		b = binary.AppendUvarint(b, seq)
	}
	b = append(b, 0) // reserved: a retired flush wave's ID
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendVarint(b, int64(m.Hops))
	if flags&flagTraced != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Note.Path)))
		for _, h := range m.Note.Path {
			b = appendString(b, string(h.Broker))
			b = binary.LittleEndian.AppendUint64(b, uint64(h.At.UnixNano()))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v message.Value) []byte {
	switch v.Kind() {
	case message.KindString:
		b = append(b, tagString)
		b = appendString(b, v.Str())
	case message.KindInt:
		b = append(b, tagInt)
		b = binary.AppendVarint(b, v.IntVal())
	case message.KindFloat:
		b = append(b, tagFloat)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.FloatVal()))
	case message.KindBool:
		if v.BoolVal() {
			b = append(b, tagTrue)
		} else {
			b = append(b, tagFalse)
		}
	default:
		b = append(b, tagInvalid)
	}
	return b
}

// AppendNote appends the encoding of one notification, without its hop
// trail (the trail travels in the message trailer): what a relay-form
// message carries in RawNote.
func AppendNote(b []byte, n *message.Notification) []byte {
	b = appendString(b, string(n.ID.Publisher))
	b = binary.AppendUvarint(b, n.ID.Seq)
	if n.Published.IsZero() {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(n.Published.UnixNano()))
	}
	b = binary.AppendUvarint(b, uint64(len(n.Attrs)))
	for name, v := range n.Attrs {
		b = appendString(b, name)
		b = appendValue(b, v)
	}
	return b
}

func appendConstraint(b []byte, c filter.Constraint) []byte {
	b = appendString(b, c.Attr)
	b = binary.AppendUvarint(b, uint64(c.Op))
	b = appendValue(b, c.Val)
	b = binary.AppendUvarint(b, uint64(len(c.Set)))
	for _, v := range c.Set {
		b = appendValue(b, v)
	}
	return b
}

func appendFilter(b []byte, f filter.Filter) []byte {
	cs := f.Constraints()
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendConstraint(b, c)
	}
	return b
}

func appendSubscription(b []byte, s proto.Subscription) []byte {
	b = appendString(b, string(s.ID))
	return appendFilter(b, s.Filter)
}

// --- decoding ----------------------------------------------------------

var (
	errTruncated    = errors.New("codec: truncated frame")
	errRepeatedAttr = errors.New("codec: note repeats an attribute name")
)

// reader tracks a decode position with sticky error state so every field
// accessor stays a one-liner at the call site and no read can run past
// the payload.
type reader struct {
	data []byte
	off  int
	err  error
	// alias makes the strings read share data instead of copying it, which
	// costs nothing: how a NoteView reads its bytes, and how the relay
	// decode steps over the note it keeps.
	alias bool
	names *Interner // where copied name strings come from (nil = allocate each)
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail(errTruncated)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// bytes reads a length-prefixed byte string and returns it in place.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail(errTruncated)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// text turns bytes read off the payload into a string; name marks a string
// worth interning.
func (r *reader) text(b []byte, name bool) string {
	switch {
	case len(b) == 0:
		return ""
	case r.alias:
		// Sound only because a NoteView's bytes are never modified (see
		// NoteView), and the relay decode drops what it reads: the string
		// shares the bytes for as long as it lives.
		return unsafe.String(&b[0], len(b))
	case name && r.names != nil:
		return r.names.bytes(b)
	default:
		return string(b)
	}
}

// str reads a string.
func (r *reader) str() string { return r.text(r.bytes(), false) }

// name reads a string that names something a decode meets again and again:
// a node, a publisher, an attribute, a matched subscription.
func (r *reader) name() string { return r.text(r.bytes(), true) }

// count reads a list length and validates it against the remaining bytes
// (each element needs at least minBytes), so a corrupt count cannot drive
// a huge allocation.
func (r *reader) count(minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minBytes) {
		r.fail(fmt.Errorf("codec: list of %d elements exceeds frame", n))
		return 0
	}
	return int(n)
}

func (r *reader) value() message.Value {
	switch tag := r.byte(); tag {
	case tagString:
		return message.String(r.str())
	case tagInt:
		return message.Int(r.varint())
	case tagFloat:
		return message.Float(math.Float64frombits(r.uint64()))
	case tagTrue:
		return message.Bool(true)
	case tagFalse:
		return message.Bool(false)
	case tagInvalid:
		return message.Value{}
	default:
		r.fail(fmt.Errorf("codec: unknown value tag %d", tag))
		return message.Value{}
	}
}

// noteHead reads a note's header: its ID, its publish time and how many
// attributes follow.
func (r *reader) noteHead() (id message.NotificationID, published time.Time, attrs int) {
	id.Publisher = message.NodeID(r.name())
	id.Seq = r.uvarint()
	if r.byte() == 1 {
		published = time.Unix(0, int64(r.uint64()))
	}
	return id, published, r.count(2)
}

// note reads one encoded notification into n. It is the package's only
// note decoder: DecodeMessage, DecodeRelay and NoteView.Notification all
// come through it. With n nil the note is only checked and stepped over,
// which is how the relay decode knows the bytes it keeps are well formed.
func (r *reader) note(n *message.Notification) {
	id, published, cnt := r.noteHead()
	if n != nil {
		n.ID, n.Published = id, published
		if cnt > 0 {
			n.Attrs = make(map[string]message.Value, cnt)
		}
	}
	var seen nameSet
	for i := 0; i < cnt && r.err == nil; i++ {
		name := r.bytes()
		if seen.repeats(name) {
			r.fail(errRepeatedAttr)
			return
		}
		v := r.value()
		if n != nil {
			n.Attrs[r.text(name, true)] = v
		}
	}
}

// nameSet remembers the attribute names of the note being read, so a
// repeated one is caught: compared in place while there are few, in a map
// past that (a note that long is not the hot path).
type nameSet struct {
	few  [8][]byte
	n    int
	many map[string]struct{}
}

// repeats reports whether b is a name already seen, and remembers it.
func (s *nameSet) repeats(b []byte) bool {
	if s.many == nil {
		for _, p := range s.few[:s.n] {
			if string(p) == string(b) {
				return true
			}
		}
		if s.n < len(s.few) {
			s.few[s.n] = b
			s.n++
			return false
		}
		s.many = make(map[string]struct{}, 2*len(s.few))
		for _, p := range s.few {
			s.many[string(p)] = struct{}{}
		}
	}
	if _, ok := s.many[string(b)]; ok {
		return true
	}
	s.many[string(b)] = struct{}{}
	return false
}

func (r *reader) constraint() filter.Constraint {
	var c filter.Constraint
	c.Attr = r.str()
	c.Op = filter.Op(r.uvarint())
	c.Val = r.value()
	cnt := r.count(1)
	if cnt > 0 {
		c.Set = make([]message.Value, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			c.Set = append(c.Set, r.value())
		}
	}
	return c
}

func (r *reader) filter() filter.Filter {
	cnt := r.count(2)
	if cnt == 0 {
		return filter.All()
	}
	cs := make([]filter.Constraint, 0, cnt)
	for i := 0; i < cnt && r.err == nil; i++ {
		cs = append(cs, r.constraint())
	}
	if r.err != nil {
		return filter.Filter{}
	}
	return filter.New(cs...)
}

func (r *reader) subscription() proto.Subscription {
	var s proto.Subscription
	s.ID = message.SubID(r.str())
	s.Filter = r.filter()
	return s
}

// DecodeMessage decodes one frame payload (no length prefix). Malformed
// input — truncated fields, inflated list counts, unknown tags, trailing
// garbage — returns an error; DecodeMessage never panics.
func DecodeMessage(data []byte) (proto.Message, error) { return decodeMessage(data, nil, false) }

// DecodeRelayMessage is DecodeMessage with an untraced KPublish left in the
// relay form, as Decoder.DecodeRelay reads it. It accepts exactly what
// DecodeMessage accepts.
func DecodeRelayMessage(data []byte) (proto.Message, error) { return decodeMessage(data, nil, true) }

func decodeMessage(data []byte, names *Interner, relay bool) (proto.Message, error) {
	r := reader{data: data, names: names}
	var m proto.Message
	kind := r.uvarint()
	if r.err == nil && (kind == uint64(proto.KInvalid) || kind >= uint64(proto.NumKinds)) {
		return proto.Message{}, fmt.Errorf("codec: unknown message kind %d", kind)
	}
	m.Kind = proto.Kind(kind)
	flags := r.byte()
	if r.err == nil && flags&^(flagNote|flagSub|flagStale|flagFresh|flagTraced) != 0 {
		return proto.Message{}, fmt.Errorf("codec: unknown flag bits %#x", flags)
	}
	if r.err == nil && flags&flagTraced != 0 && flags&flagNote == 0 {
		return proto.Message{}, errors.New("codec: traced flag without a note")
	}
	m.From = message.NodeID(r.name())
	m.Origin = message.NodeID(r.name())
	m.Dest = message.NodeID(r.name())
	m.Client = message.NodeID(r.name())
	// The relay form's bytes: kept only once the whole frame has decoded.
	rawFrom, rawTo := 0, 0
	if flags&flagNote != 0 {
		if relay && m.Kind == proto.KPublish && flags&flagTraced == 0 {
			rawFrom = r.off
			r.alias = true
			r.note(nil)
			r.alias = false
			rawTo = r.off
		} else {
			m.Note = new(message.Notification)
			r.note(m.Note)
		}
	}
	if cnt := r.count(3); cnt > 0 {
		m.Notes = make([]message.Notification, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			r.note(&m.Notes[i])
		}
	}
	if cnt := r.count(1); cnt > 0 {
		m.SubIDs = make([]message.SubID, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			m.SubIDs = append(m.SubIDs, message.SubID(r.name()))
		}
	}
	m.Credits = int(r.varint())
	if flags&flagSub != 0 {
		s := r.subscription()
		m.Sub = &s
	}
	if cnt := r.count(2); cnt > 0 {
		m.Subs = make([]proto.Subscription, 0, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			m.Subs = append(m.Subs, r.subscription())
		}
	}
	for i, cnt := 0, r.count(2); i < cnt && r.err == nil; i++ {
		r.subscription() // retired slot
	}
	if cnt := r.count(2); cnt > 0 {
		m.Watermarks = make(map[message.NodeID]uint64, cnt)
		for i := 0; i < cnt && r.err == nil; i++ {
			node := message.NodeID(r.name())
			m.Watermarks[node] = r.uvarint()
		}
	}
	r.uvarint() // reserved slot
	m.Epoch = r.uvarint()
	m.Hops = int(r.varint())
	if flags&flagTraced != 0 {
		// Each hop is at least a length byte plus its 8-byte timestamp.
		cnt := r.count(9)
		if cnt > 0 {
			path := make([]message.HopStamp, 0, cnt)
			for i := 0; i < cnt && r.err == nil; i++ {
				broker := message.NodeID(r.name())
				path = append(path, message.HopStamp{Broker: broker, At: time.Unix(0, int64(r.uint64()))})
			}
			if r.err == nil {
				m.Note.Path = path
			}
		}
	}
	m.Stale = flags&flagStale != 0
	m.Fresh = flags&flagFresh != 0
	if r.err != nil {
		return proto.Message{}, r.err
	}
	if r.off != len(r.data) {
		return proto.Message{}, fmt.Errorf("codec: %d trailing bytes after message", len(r.data)-r.off)
	}
	if rawTo > rawFrom {
		// The decoder reuses data for the next frame: the message owns a
		// copy, and nothing writes to it again (NoteView relies on that).
		m.RawNote = bytes.Clone(data[rawFrom:rawTo])
	}
	return m, nil
}
