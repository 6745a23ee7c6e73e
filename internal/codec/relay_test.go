package codec_test

import (
	"bytes"
	"reflect"
	"testing"

	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// frameOf encodes m as one length-prefixed frame at the given version.
func frameOf(t testing.TB, m proto.Message, ver byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.NewEncoderVersion(&buf, ver).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRelayDecodeAllocatesOnce pins the relay decode's cost on a broker
// link: one allocation per publish frame, the note's bytes, once the
// connection's interner knows the client's ID.
func TestRelayDecodeAllocatesOnce(t *testing.T) {
	frame := frameOf(t, benchMessage(), codec.Version)
	r := bytes.NewReader(frame)
	dec := codec.NewDecoder(r)
	var m proto.Message
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if err := dec.DecodeRelay(&m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("DecodeRelay of a KPublish frame: %v allocs, want 1", allocs)
	}
	if m.Note != nil || m.RawNote == nil || m.Client != "pub" {
		t.Fatalf("not the relay form: Note %v, RawNote %d bytes, Client %q", m.Note, len(m.RawNote), m.Client)
	}
}

// TestDecoderInternsNames: a Decoder that builds notes hands out one copy of
// every node ID, publisher ID, attribute name and matched subscription ID
// it meets again, so a delivery costs only what is new in it. DecodeMessage,
// with no connection to remember anything, allocates each one every time.
func TestDecoderInternsNames(t *testing.T) {
	n := sampleNote(9)
	m := proto.Message{Kind: proto.KDeliver, Client: "alice", Note: &n, SubIDs: []message.SubID{"alice/s1"}}
	frame := frameOf(t, m, codec.Version)
	payload := frame[4:]
	r := bytes.NewReader(frame)
	dec := codec.NewDecoder(r)
	var a, b proto.Message
	for _, out := range []*proto.Message{&a, &b} {
		r.Reset(frame)
		if err := dec.Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, normalize(m)) {
		t.Fatalf("decoded %+v, want %+v", a, normalize(m))
	}
	interned := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if err := dec.Decode(&a); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(100, func() {
		if _, err := codec.DecodeMessage(payload); err != nil {
			t.Fatal(err)
		}
	})
	// Client, publisher, five attribute names and the subscription ID.
	if saved := fresh - interned; saved != 8 {
		t.Errorf("Decode %v allocs, DecodeMessage %v: interning saved %v, want 8", interned, fresh, saved)
	}
}

// TestRelayFormForwardsUnchanged: a relay-form publish goes out as the
// frame it came in as, at either protocol version, and reads back as the
// note it carried — what a transit broker does with every untraced
// publish.
func TestRelayFormForwardsUnchanged(t *testing.T) {
	in := benchMessage()
	frame := frameOf(t, in, codec.Version)
	var relay proto.Message
	if err := codec.NewDecoder(bytes.NewReader(frame)).DecodeRelay(&relay); err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{1, codec.Version} {
		out := frameOf(t, relay, ver)
		if !bytes.Equal(out, frame) {
			t.Errorf("version %d: forwarded frame differs from the received one", ver)
		}
		back, err := codec.DecodeMessage(out[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, normalize(in)) {
			t.Errorf("version %d: forwarded frame reads %+v, want %+v", ver, back, normalize(in))
		}
	}
	// A traced publish is decoded whole, trail and all.
	traced := tracedNote()
	m := proto.Message{Kind: proto.KPublish, Client: "pub", Note: &traced}
	var got proto.Message
	if err := codec.NewDecoder(bytes.NewReader(frameOf(t, m, codec.Version))).DecodeRelay(&got); err != nil {
		t.Fatal(err)
	}
	if got.RawNote != nil || got.Note == nil || !reflect.DeepEqual(got.Note.Path, traced.Path) {
		t.Fatalf("traced publish: RawNote %d bytes, Note %+v", len(got.RawNote), got.Note)
	}
}

// TestNoteViewMatchesLikeTheNotification: the attribute list a view reads
// off the bytes selects the same subscriptions in the matching index as the
// notification's own map.
func TestNoteViewMatchesLikeTheNotification(t *testing.T) {
	n := sampleNote(3)
	ix := filter.NewIndex()
	ix.Add("hit", sampleFilter().ResolveMyloc([]string{"hall"}).And(filter.New(filter.Eq("off", message.Bool(false)))))
	ix.Add("miss", filter.New(filter.Eq("service", message.String("humidity"))))
	ix.Add("range", filter.New(filter.Gt("value", message.Int(21)), filter.Exists("indoor")))
	n.Attrs["room"] = message.String("r-2")
	n.Attrs["location"] = message.String("hall")
	n.Attrs["floor"] = message.Int(1)
	var fromMap, fromView []string
	ix.Match(n, func(key string) { fromMap = append(fromMap, key) })
	v := codec.ViewNote(codec.AppendNote(nil, &n))
	ix.MatchAttrs(v.AppendAttrs(nil), func(key string) { fromView = append(fromView, key) })
	if len(fromMap) != 2 || !sameKeys(fromMap, fromView) {
		t.Fatalf("map matched %v, view %v; want hit and range", fromMap, fromView)
	}
	if v.ID() != n.ID || !v.Published().Equal(n.Published) {
		t.Fatalf("view reads %v at %v, want %v at %v", v.ID(), v.Published(), n.ID, n.Published)
	}
	if got := v.Notification(nil); !reflect.DeepEqual(got, n) {
		t.Fatalf("view builds %+v, want %+v", got, n)
	}
}

func sameKeys(a, b []string) bool {
	seen := map[string]int{}
	for _, k := range a {
		seen[k]++
	}
	for _, k := range b {
		seen[k]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}
