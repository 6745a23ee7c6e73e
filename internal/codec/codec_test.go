package codec_test

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// sampleNote exercises every value kind in one notification.
func sampleNote(seq uint64) message.Notification {
	n := message.NewNotification(map[string]message.Value{
		"service": message.String("temperature"),
		"value":   message.Float(21.5),
		"floor":   message.Int(3),
		"indoor":  message.Bool(true),
		"off":     message.Bool(false),
	})
	n.ID = message.NotificationID{Publisher: "pub", Seq: seq}
	n.Published = time.Unix(0, 1055764800123456789)
	return n
}

func sampleFilter() filter.Filter {
	return filter.New(
		filter.Eq("service", message.String("temperature")),
		filter.Le("value", message.Float(25)),
		filter.In("floor", message.Int(1), message.Int(2)),
		filter.Prefix("room", "r-"),
		filter.Exists("indoor"),
		filter.Constraint{Attr: "location", Op: filter.OpMyloc},
	)
}

// sampleMessages covers every proto kind with its typical payload shape.
func sampleMessages() []proto.Message {
	note := sampleNote(1)
	sub := proto.Subscription{ID: "alice/s1", Filter: sampleFilter()}
	all := proto.Subscription{ID: "alice/s2", Filter: filter.All()}
	var out []proto.Message
	for k := proto.KInvalid + 1; int(k) < proto.NumKinds; k++ {
		m := proto.Message{Kind: k, From: "B1", Origin: "B0", Client: "alice"}
		switch k {
		case proto.KPublish, proto.KDeliver:
			m.Note = &note
			m.SubIDs = []message.SubID{"alice/s1", "alice/s2"}
		case proto.KPublishBatch, proto.KRelocTail, proto.KBufferFetchReply:
			m.Notes = []message.Notification{sampleNote(1), sampleNote(2)}
		case proto.KSubscribe, proto.KUnsubscribe, proto.KReplicaSub, proto.KReplicaUnsub:
			m.Sub = &sub
		case proto.KConnect:
			m.Subs = []proto.Subscription{sub, all}
			m.Epoch = 7
			m.Credits = 64
		case proto.KCredit:
			m.Credits = 32
		case proto.KRelocProfile:
			m.Subs = []proto.Subscription{sub}
			m.Notes = []message.Notification{sampleNote(3)}
			m.Watermarks = map[message.NodeID]uint64{"pub": 9, "pub2": 4}
			m.Stale = true
		case proto.KRelocReq, proto.KRelocActivate:
			m.Dest = "B9"
			m.Epoch = 3
			m.Fresh = true
		case proto.KReplicaCreate:
			m.Subs = []proto.Subscription{sub}
		case proto.KHello, proto.KSyncInstall:
			m.Epoch = 12
			m.Subs = []proto.Subscription{sub, all}
		}
		m.Hops = int(k)
		out = append(out, m)
	}
	return out
}

// deliverBatch is a replay: one KDeliver carrying its notes in Notes,
// with the subscription identities a live delivery carries.
func deliverBatch() proto.Message {
	return proto.Message{
		Kind: proto.KDeliver, From: "B1", Client: "alice",
		Notes:  []message.Notification{sampleNote(1), sampleNote(2), sampleNote(3)},
		SubIDs: []message.SubID{"alice/s1", "alice/s2"},
	}
}

// normalize strips the encoding-invisible differences (monotonic clock
// readings) so reflect.DeepEqual compares wire content.
func normalize(m proto.Message) proto.Message {
	round := func(n *message.Notification) {
		if !n.Published.IsZero() {
			n.Published = time.Unix(0, n.Published.UnixNano())
		}
	}
	if m.Note != nil {
		note := *m.Note
		round(&note)
		m.Note = &note
	}
	for i := range m.Notes {
		round(&m.Notes[i])
	}
	return m
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		data := codec.AppendMessage(nil, &m)
		back, err := codec.DecodeMessage(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind, err)
		}
		if want := normalize(m); !reflect.DeepEqual(back, want) {
			t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", m.Kind, back, want)
		}
	}
}

// A replay batch rides KDeliver's Notes: the notes come back in order,
// with the subscription identities.
func TestCodecRoundTripDeliverBatch(t *testing.T) {
	m := deliverBatch()
	back, err := codec.DecodeMessage(codec.AppendMessage(nil, &m))
	if err != nil {
		t.Fatal(err)
	}
	if want := normalize(m); !reflect.DeepEqual(back, want) {
		t.Errorf("round trip mismatch\n got %+v\nwant %+v", back, want)
	}
}

func TestCodecFilterSemanticsSurvive(t *testing.T) {
	sub := proto.Subscription{ID: "s", Filter: sampleFilter()}
	m := proto.Message{Kind: proto.KSubscribe, Sub: &sub}
	back, err := codec.DecodeMessage(codec.AppendMessage(nil, &m))
	if err != nil {
		t.Fatal(err)
	}
	f := back.Sub.Filter
	if !f.LocationDependent() {
		t.Error("filter lost its myloc marker")
	}
	if f.Key() != sub.Filter.Key() {
		t.Errorf("canonical key changed: %q vs %q", f.Key(), sub.Filter.Key())
	}
	n := message.NewNotification(map[string]message.Value{
		"service": message.String("temperature"),
		"value":   message.Float(20),
		"floor":   message.Int(2),
		"room":    message.String("r-7"),
		"indoor":  message.Bool(true),
	})
	if !f.MatchesIgnoringMarkers(n) {
		t.Error("decoded filter no longer matches")
	}
}

// TestCodecTruncatedFrames slices every valid payload at every byte
// boundary: the decoder must return an error (or decode a strict prefix
// that happens to be well-formed — impossible here because of the
// trailing-bytes check), and must never panic.
func TestCodecTruncatedFrames(t *testing.T) {
	for _, m := range sampleMessages() {
		data := codec.AppendMessage(nil, &m)
		for cut := 0; cut < len(data); cut++ {
			if _, err := codec.DecodeMessage(data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded cleanly", m.Kind, cut, len(data))
			}
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{0},             // kind 0 (invalid)
		{200, 200, 200}, // kind far out of range
		{1, 0xFF},       // unknown flag bits
		append(codec.AppendMessage(nil, &proto.Message{Kind: proto.KPing}), 0xAB), // trailing byte
	}
	for i, data := range cases {
		if _, err := codec.DecodeMessage(data); err == nil {
			t.Errorf("case %d: garbage decoded cleanly", i)
		}
	}
}

// TestDecoderStream verifies framing over a byte stream, clean EOF at a
// frame boundary, and ErrUnexpectedEOF on a torn tail.
func TestDecoderStream(t *testing.T) {
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf)
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	dec := codec.NewDecoder(bytes.NewReader(stream))
	for i := range msgs {
		var got proto.Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := normalize(msgs[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	var tail proto.Message
	if err := dec.Decode(&tail); err != io.EOF {
		t.Fatalf("clean stream end: got %v, want io.EOF", err)
	}
	// Torn tail: every strict prefix of the stream must end in a framing
	// error, never a panic.
	for cut := 1; cut < len(stream); cut += 7 {
		dec := codec.NewDecoder(bytes.NewReader(stream[:cut]))
		var err error
		for err == nil {
			var m proto.Message
			err = dec.Decode(&m)
		}
		if err == io.EOF && cut%int(uint32(len(stream))) != 0 {
			// io.EOF is only legitimate exactly between frames.
			off := 0
			boundary := false
			for off < cut {
				n := int(uint32(stream[off]) | uint32(stream[off+1])<<8 |
					uint32(stream[off+2])<<16 | uint32(stream[off+3])<<24)
				off += 4 + n
				if off == cut {
					boundary = true
				}
			}
			if !boundary {
				t.Fatalf("cut at %d: clean EOF mid-frame", cut)
			}
		}
	}
}

func TestDecoderRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	hdr[3] = 0xFF // ~4GB length prefix
	dec := codec.NewDecoder(bytes.NewReader(hdr[:]))
	var m proto.Message
	if err := dec.Decode(&m); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestDecoderRejectsOverflowingFrameLength pins the 32-bit safety of the
// length guard: a 0xFFFFFFFF header must be rejected as oversized on
// every platform, not wrap negative past the check into a panicking
// slice expression (reproduced on GOARCH=386 before the fix).
func TestDecoderRejectsOverflowingFrameLength(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	dec := codec.NewDecoder(bytes.NewReader(hdr))
	var m proto.Message
	err := dec.Decode(&m)
	if err == nil {
		t.Fatal("overflowing frame length accepted")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("want the oversized-frame error, got: %v", err)
	}
}
