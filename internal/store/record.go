package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rebeca/internal/codec"
	"rebeca/internal/proto"
)

// The WAL's record encoding. Every op has the same header of uvarints and
// length-prefixed strings, so neither direction branches on the kind
// beyond "an append carries a notification":
//
//	record := kind flags name:string seq [at] upTo next [data:string] [note]
//
// flags bit 0 says at follows, the UnixNano of a non-zero time.Time; bit 1
// says data follows — a snapshot without it is a delete, with an empty one
// an empty value. note, present exactly when kind is opAppend, runs to the
// end of the record: the codec's encoding of a KDeliver message carrying
// the notification. That is the wire's own representation of "this note,
// for delivery" — it keeps the hop Path, and recovery decodes it with the
// same fuzzed decoder a broker link uses.
const (
	recHasAt = 1 << iota
	recHasData
)

var errRecord = errors.New("store: malformed record")

// appendOp appends o's record encoding to b.
func appendOp(b []byte, o *op) []byte {
	var flags uint64
	if !o.at.IsZero() {
		flags |= recHasAt
	}
	if o.data != nil {
		flags |= recHasData
	}
	b = binary.AppendUvarint(b, uint64(o.kind))
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(len(o.name)))
	b = append(b, o.name...)
	b = binary.AppendUvarint(b, o.seq)
	if flags&recHasAt != 0 {
		b = binary.AppendUvarint(b, uint64(o.at.UnixNano()))
	}
	b = binary.AppendUvarint(b, o.upTo)
	b = binary.AppendUvarint(b, o.next)
	if flags&recHasData != 0 {
		b = binary.AppendUvarint(b, uint64(len(o.data)))
		b = append(b, o.data...)
	}
	if o.kind == opAppend {
		b = codec.AppendMessage(b, &proto.Message{Kind: proto.KDeliver, Note: &o.note})
	}
	return b
}

// decodeOp decodes one record. The result's data aliases b (fold copies
// it); everything else is copied out.
func decodeOp(b []byte) (op, error) {
	r := recReader{b: b}
	kind, flags := r.uvarint(), r.uvarint()
	o := op{kind: opKind(kind), name: string(r.blob()), seq: r.uvarint()}
	if flags&recHasAt != 0 {
		o.at = time.Unix(0, int64(r.uvarint()))
	}
	o.upTo, o.next = r.uvarint(), r.uvarint()
	if flags&recHasData != 0 {
		o.data = r.blob()
	}
	if r.bad || kind < uint64(opAppend) || kind > uint64(opQueueMeta) || flags > recHasAt|recHasData {
		return op{}, errRecord
	}
	if o.kind != opAppend {
		if len(r.b) != 0 {
			return op{}, errRecord
		}
		return o, nil
	}
	m, err := codec.DecodeMessage(r.b)
	if err != nil {
		return op{}, fmt.Errorf("store: record notification: %w", err)
	}
	if m.Kind != proto.KDeliver || m.Note == nil {
		return op{}, errRecord
	}
	o.note = *m.Note
	return o, nil
}

// recReader consumes a record header front to back. A read past the end
// sets bad, empties the input so every later read fails too, and yields a
// zero, so decodeOp checks once.
type recReader struct {
	b   []byte
	bad bool
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// blob reads a length-prefixed byte string; an empty one is not nil.
func (r *recReader) blob() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}
