package buffer

import (
	"time"

	"rebeca/internal/message"
	"rebeca/internal/store"
)

// Durable is the store-backed Policy: it mirrors every Add into a named
// store queue *before* the notification is considered buffered, applies the
// wrapped in-memory policy — a Window's bounds — for GC/snapshot semantics,
// and acks the queue when the buffer is cleared — which the
// session layers do only after a delivery or handover is confirmed. A
// process that dies between Add and Clear therefore redelivers on
// recovery; it never loses.
//
// Construction replays the queue's pending records through the inner
// policy (arrival times are persisted, so TTL bounds keep working across a
// restart): a Durable built on a non-empty queue *is* the recovered
// buffer.
//
// Like every Policy, a Durable is driven from one broker event loop; the
// store it wraps is safe for concurrent use across loops.
type Durable struct {
	s     store.Store
	queue string
	inner Policy
	// last is the highest sequence appended to (or recovered from) the
	// queue; Clear acks up to it.
	last uint64
	// err records the first persistence failure (surfaced via Err; the
	// buffer keeps working from memory — degraded, not wedged).
	err error
}

// NewDurable wraps inner with persistence in the store queue named q,
// recovering any pending records into inner. A nil inner defaults to an
// unbounded Window.
func NewDurable(s store.Store, q string, inner Policy) *Durable {
	if inner == nil {
		inner = NewUnbounded()
	}
	d := &Durable{s: s, queue: q, inner: inner}
	recs, err := s.ReplayFrom(q, 0)
	if err != nil {
		d.err = err
		return d
	}
	for _, r := range recs {
		d.inner.Add(r.Note, r.At)
		if r.Seq > d.last {
			d.last = r.Seq
		}
	}
	return d
}

// Queue returns the backing store queue name.
func (d *Durable) Queue() string { return d.queue }

// Err returns the first persistence error encountered (nil when healthy).
func (d *Durable) Err() error { return d.err }

// Add implements Policy: append to the WAL first, then buffer in memory.
func (d *Durable) Add(n message.Notification, now time.Time) {
	seq, err := d.s.Append(d.queue, n, now)
	switch {
	case err != nil:
		if d.err == nil {
			d.err = err
		}
	case seq > d.last:
		d.last = seq
	}
	d.inner.Add(n, now)
}

// Snapshot implements Policy. GC (TTL/cap eviction) happens in the inner
// policy; evicted records stay in the store until the next Clear acks
// them — eviction is a memory bound, acking is a delivery confirmation.
func (d *Durable) Snapshot(now time.Time) []message.Notification {
	return d.inner.Snapshot(now)
}

// Len implements Policy.
func (d *Durable) Len() int { return d.inner.Len() }

// Bytes implements Policy.
func (d *Durable) Bytes() int { return d.inner.Bytes() }

// Clear implements Policy: the buffered content has been delivered (or
// handed over), so the queue is acked through the last appended record.
func (d *Durable) Clear() {
	d.inner.Clear()
	if d.last > 0 {
		if err := d.s.Ack(d.queue, d.last); err != nil && d.err == nil {
			d.err = err
		}
	}
}

// Release acks everything and compacts the store — called when a durable
// subscription is cancelled so its queue stops pinning WAL segments.
func (d *Durable) Release() {
	d.Clear()
	if err := d.s.Compact(); err != nil && d.err == nil {
		d.err = err
	}
}

var _ Policy = (*Durable)(nil)
