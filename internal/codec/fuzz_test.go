package codec_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rebeca/internal/codec"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the decoder: it must reject
// or accept without ever panicking, and anything it accepts must re-encode
// and re-decode to the same message (the decoder's output is canonical).
// The seed corpus contains one valid payload per proto kind, plus a
// replay's batched KDeliver — covering every message shape, all value
// kinds and filter constraints — so the fuzzer starts from the
// interesting region of the input space and mutation produces realistic
// torn/corrupt frames.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range append(sampleMessages(), deliverBatch()) {
		f.Add(codec.AppendMessage(nil, &m))
		// Truncated variant: a torn frame straight in the corpus.
		if data := codec.AppendMessage(nil, &m); len(data) > 3 {
			f.Add(data[:len(data)/2])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := codec.DecodeMessage(data)
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		re := codec.AppendMessage(nil, &m)
		back, err := codec.DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v\nmessage: %+v", err, m)
		}
		if !hasNaN(&m) && !reflect.DeepEqual(back, normalize(m)) {
			// NaN-carrying messages round-trip bit-exactly but defeat
			// DeepEqual (NaN != NaN), so they are only checked for
			// decodability above.
			t.Fatalf("round trip not stable:\n got %+v\nwant %+v", back, m)
		}
	})
}

// hasNaN reports whether any float value in the message is NaN.
func hasNaN(m *proto.Message) bool {
	valNaN := func(v message.Value) bool {
		return v.Kind() == message.KindFloat && v.FloatVal() != v.FloatVal()
	}
	noteNaN := func(n *message.Notification) bool {
		for _, v := range n.Attrs {
			if valNaN(v) {
				return true
			}
		}
		return false
	}
	subNaN := func(s *proto.Subscription) bool {
		for _, c := range s.Filter.Constraints() {
			if valNaN(c.Val) {
				return true
			}
			for _, v := range c.Set {
				if valNaN(v) {
					return true
				}
			}
		}
		return false
	}
	if m.Note != nil && noteNaN(m.Note) {
		return true
	}
	for i := range m.Notes {
		if noteNaN(&m.Notes[i]) {
			return true
		}
	}
	if m.Sub != nil && subNaN(m.Sub) {
		return true
	}
	for i := range m.Subs {
		if subNaN(&m.Subs[i]) {
			return true
		}
	}
	return false
}

// FuzzRelayForm holds the relay decode to DecodeMessage on any payload: it
// never panics, and it either rejects the payload or accepts exactly what
// DecodeMessage accepts — the same header, and a note whose view reads the
// same ID, publish time and attributes (by Get and by iteration) and builds
// the same Notification. Relaying the frame (AppendMessage over the relay
// form) and decoding the result gives the message that decode →
// AppendMessage → decode gives.
func FuzzRelayForm(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(codec.AppendMessage(nil, &m))
	}
	pub := benchMessage()
	data := codec.AppendMessage(nil, &pub)
	f.Add(data[:len(data)-3])
	// "indoor" renamed "service": a note repeating an attribute name.
	f.Add(bytes.Replace(data, []byte("\x06indoor"), []byte("\x07service"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		relay, err := codec.DecodeRelayMessage(data)
		full, ferr := codec.DecodeMessage(data)
		if err != nil {
			if ferr == nil {
				t.Fatalf("relay decode refused what DecodeMessage accepts: %v", err)
			}
			return
		}
		if ferr != nil {
			t.Fatalf("relay decode accepted what DecodeMessage refuses: %v", ferr)
		}
		nan := hasNaN(&full)
		if relay.RawNote == nil {
			// Kinds fit one byte, so data[1] is the flags byte; 16 is traced.
			if relay.Kind == proto.KPublish && full.Note != nil && data[1]&16 == 0 {
				t.Fatal("untraced publish not left in the relay form")
			}
			if !nan && !reflect.DeepEqual(relay, full) {
				t.Fatalf("relay decode differs outside the relay form:\n got %+v\nwant %+v", relay, full)
			}
			return
		}
		if relay.Kind != proto.KPublish || relay.Note != nil || full.Note == nil {
			t.Fatalf("relay form on %s: Note %v, DecodeMessage's Note %v", relay.Kind, relay.Note, full.Note)
		}
		header, want := relay, full
		header.RawNote, want.Note = nil, nil
		if !nan && !reflect.DeepEqual(header, want) {
			t.Fatalf("header differs:\n got %+v\nwant %+v", header, want)
		}
		v := codec.ViewNote(relay.RawNote)
		if v.ID() != full.Note.ID || !v.Published().Equal(full.Note.Published) || v.Published().IsZero() != full.Note.Published.IsZero() {
			t.Fatalf("view reads %v at %v, DecodeMessage %v at %v", v.ID(), v.Published(), full.Note.ID, full.Note.Published)
		}
		attrs := v.AppendAttrs(nil)
		if len(attrs) != len(full.Note.Attrs) {
			t.Fatalf("view lists %d attributes, DecodeMessage %d", len(attrs), len(full.Note.Attrs))
		}
		for _, a := range attrs {
			if w, ok := full.Note.Attrs[a.Name]; !ok || !sameValue(a.Val, w) {
				t.Fatalf("view lists %s = %v, DecodeMessage has %v (%v)", a.Name, a.Val, w, ok)
			}
		}
		for name, w := range full.Note.Attrs {
			if got, ok := v.Get(name); !ok || !sameValue(got, w) {
				t.Fatalf("view Get(%q) = %v (%v), want %v", name, got, ok, w)
			}
		}
		if _, ok := v.Get("\xffabsent"); ok != full.Note.Has("\xffabsent") {
			t.Fatal("view finds an attribute the note lacks")
		}
		if built := v.Notification(nil); !nan && !reflect.DeepEqual(built, *normalize(full).Note) {
			t.Fatalf("view builds %+v, DecodeMessage %+v", built, *full.Note)
		}
		relayed, err := codec.DecodeMessage(codec.AppendMessage(nil, &relay))
		if err != nil {
			t.Fatalf("relayed frame does not decode: %v", err)
		}
		again, err := codec.DecodeMessage(codec.AppendMessage(nil, &full))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !nan && !reflect.DeepEqual(normalize(relayed), normalize(again)) {
			t.Fatalf("relayed frame decodes to\n %+v\nre-encoded one to\n %+v", relayed, again)
		}
	})
}

// sameValue is value identity, NaN included: same kind, same bits.
func sameValue(a, b message.Value) bool {
	if a.Kind() == message.KindFloat && b.Kind() == message.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return reflect.DeepEqual(a, b)
}

// FuzzDecodeNeverPanics drives Decode through the streaming layer too:
// header parsing, frame length validation and payload reads must all
// degrade to errors on malformed input.
func FuzzDecodeNeverPanics(f *testing.F) {
	var m = proto.Message{Kind: proto.KPing, From: "A"}
	payload := codec.AppendMessage(nil, &m)
	frame := append([]byte{byte(len(payload)), 0, 0, 0}, payload...)
	f.Add(frame)
	f.Add(frame[:3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := codec.NewDecoder(bytes.NewReader(data))
		for {
			var m proto.Message
			if err := dec.Decode(&m); err != nil {
				return
			}
		}
	})
}
