package codec_test

import (
	"bytes"
	"io"
	"testing"

	"rebeca/internal/codec"
	"rebeca/internal/proto"
)

// benchMessage is a representative KPublish: a 5-attribute notification,
// the shape the publish hot path carries on every broker hop.
func benchMessage() proto.Message {
	n := sampleNote(42)
	return proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}
}

// BenchmarkWireCodec measures per-message encode and decode throughput of
// the binary codec on reused streams (steady-state cost).
func BenchmarkWireCodec(b *testing.B) {
	m := benchMessage()

	b.Run("encode/binary", func(b *testing.B) {
		enc := codec.NewEncoder(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Decode benchmarks replay a pre-encoded stream of frames,
	// re-arming the reader when it drains (the stream holds enough
	// frames that re-arm cost vanishes).
	const streamLen = 4096
	b.Run("decode/binary", func(b *testing.B) {
		var buf bytes.Buffer
		enc := codec.NewEncoder(&buf)
		for i := 0; i < streamLen; i++ {
			if err := enc.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
		stream := buf.Bytes()
		r := bytes.NewReader(stream)
		dec := codec.NewDecoder(r)
		b.ReportAllocs()
		b.ResetTimer()
		var out proto.Message
		for i := 0; i < b.N; i++ {
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
			if i%streamLen == streamLen-1 {
				r.Reset(stream)
			}
		}
	})
}

// BenchmarkWireCodecSubscribe measures the control-plane shape: a
// subscription with a 5-constraint filter (canonicalization on decode
// included).
func BenchmarkWireCodecSubscribe(b *testing.B) {
	sub := proto.Subscription{ID: "alice/s1", Filter: sampleFilter()}
	m := proto.Message{Kind: proto.KSubscribe, Client: "alice", Sub: &sub}
	b.Run("encode/binary", func(b *testing.B) {
		enc := codec.NewEncoder(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
