package store

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"rebeca/internal/message"
)

// opKind discriminates logged mutations.
type opKind byte

const (
	opAppend opKind = iota + 1
	opAck
	opSnapshot
	// opQueueMeta re-establishes a queue's sequence floor and ack
	// watermark in a compacted log.
	opQueueMeta
)

// op is one logged mutation: what Memory stages in its op log and what the
// WAL frames into a segment (record.go is its byte encoding). name is the
// queue, or the snapshot key for opSnapshot.
type op struct {
	kind opKind
	name string
	seq  uint64
	at   time.Time
	note message.Notification
	upTo uint64
	next uint64
	data []byte // opSnapshot: nil deletes the key, empty is a value
}

// queueState is the live (replayed) state of one queue.
type queueState struct {
	next    uint64 // next sequence to assign
	acked   uint64
	records []Record // pending records, sequence order
}

// index is the store's state machine: the live state every op log folds
// into, and the Store readers over it. Memory and WAL embed it, take mu
// around their own mutations, and inherit the readers unchanged.
type index struct {
	mu     sync.Mutex
	queues map[string]*queueState
	snaps  map[string][]byte
}

func (ix *index) reset() {
	ix.queues = make(map[string]*queueState)
	ix.snaps = make(map[string][]byte)
}

func (ix *index) queue(name string) *queueState {
	q, ok := ix.queues[name]
	if !ok {
		q = &queueState{next: 1}
		ix.queues[name] = q
	}
	return q
}

// fold applies one op to the live state. Callers hold ix.mu.
func (ix *index) fold(o *op) {
	switch o.kind {
	case opAppend:
		q := ix.queue(o.name)
		if o.seq+1 > q.next {
			q.next = o.seq + 1
		}
		// Idempotence guard: a crash between Compact's rewrite and its
		// old-segment deletion leaves the same append in two segments.
		// Live appends are strictly increasing per queue, so a sequence at
		// or below the current tail is a replayed duplicate, not data.
		dup := len(q.records) > 0 && o.seq <= q.records[len(q.records)-1].Seq
		if o.seq > q.acked && !dup {
			q.records = append(q.records, Record{Queue: o.name, Seq: o.seq, At: o.at, Note: o.note})
		}
	case opAck:
		q := ix.queue(o.name)
		upTo := o.upTo
		if upTo >= q.next {
			upTo = q.next - 1
		}
		if upTo > q.acked {
			q.acked = upTo
		}
		i := 0
		for i < len(q.records) && q.records[i].Seq <= q.acked {
			i++
		}
		if i > 0 {
			q.records = append(q.records[:0], q.records[i:]...)
		}
	case opSnapshot:
		if o.data == nil {
			delete(ix.snaps, o.name)
		} else {
			ix.snaps[o.name] = append([]byte{}, o.data...)
		}
	case opQueueMeta:
		q := ix.queue(o.name)
		if o.next > q.next {
			q.next = o.next
		}
		if o.upTo > q.acked {
			q.acked = o.upTo
		}
	}
}

// live enumerates the minimal op list that folds back into the current
// state — what Compact rewrites the log to. Queues and keys come out in
// name order so a compacted log is reproducible. Callers hold ix.mu.
func (ix *index) live() []op {
	var ops []op
	for _, name := range slices.Sorted(maps.Keys(ix.queues)) {
		q := ix.queues[name]
		if q.next > 1 {
			ops = append(ops, op{kind: opQueueMeta, name: name, next: q.next, upTo: q.acked})
		}
		for _, r := range q.records {
			ops = append(ops, op{kind: opAppend, name: name, seq: r.Seq, at: r.At, note: r.Note})
		}
	}
	for _, k := range slices.Sorted(maps.Keys(ix.snaps)) {
		ops = append(ops, op{kind: opSnapshot, name: k, data: ix.snaps[k]})
	}
	return ops
}

// ReplayFrom implements Store.
func (ix *index) ReplayFrom(queue string, after uint64) ([]Record, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	q, ok := ix.queues[queue]
	if !ok {
		return nil, nil
	}
	var out []Record
	for _, r := range q.records {
		if r.Seq > after {
			out = append(out, r)
		}
	}
	return out, nil
}

// LoadSnapshot implements Store.
func (ix *index) LoadSnapshot(key string) ([]byte, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	b, ok := ix.snaps[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// Snapshots implements Store.
func (ix *index) Snapshots(prefix string) map[string][]byte {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make(map[string][]byte)
	for k, v := range ix.snaps {
		if strings.HasPrefix(k, prefix) {
			out[k] = append([]byte(nil), v...)
		}
	}
	return out
}

// State reports a queue's bookkeeping (tests, stats).
func (ix *index) State(queue string) QueueState {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	q, ok := ix.queues[queue]
	if !ok {
		return QueueState{Next: 1}
	}
	return QueueState{Next: q.next, Acked: q.acked, Pending: len(q.records)}
}
