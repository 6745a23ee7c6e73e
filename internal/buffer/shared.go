package buffer

import (
	"time"

	"rebeca/internal/message"
)

// Shared is the per-border-broker shared notification store of §4: "A
// shared buffer at the border broker can be used and virtual clients can
// keep only the digest (e.g., IDs or hash) of the events. … the events can
// be garbage collected … when none of the virtual clients need them."
//
// Virtual clients hold Digest views; each Add refs the stored notification
// once, and Clear/Drop unref it. A notification's storage is freed when its
// refcount reaches zero.
type Shared struct {
	store map[message.NotificationID]*sharedEntry
}

type sharedEntry struct {
	n    message.Notification
	refs int
}

// NewShared returns an empty shared store.
func NewShared() *Shared {
	return &Shared{store: make(map[message.NotificationID]*sharedEntry)}
}

// put inserts or refs a notification.
func (s *Shared) put(n message.Notification) {
	if e, ok := s.store[n.ID]; ok {
		e.refs++
		return
	}
	s.store[n.ID] = &sharedEntry{n: n, refs: 1}
}

// unref decrements a notification's refcount, freeing it at zero.
func (s *Shared) unref(id message.NotificationID) {
	e, ok := s.store[id]
	if !ok {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(s.store, id)
	}
}

// get fetches a stored notification by digest.
func (s *Shared) get(id message.NotificationID) (message.Notification, bool) {
	e, ok := s.store[id]
	if !ok {
		return message.Notification{}, false
	}
	return e.n, true
}

// Len returns the number of distinct stored notifications.
func (s *Shared) Len() int { return len(s.store) }

// Bytes approximates resident memory of the store: one copy per distinct
// notification regardless of how many virtual clients reference it.
func (s *Shared) Bytes() int {
	total := 0
	for _, e := range s.store {
		total += e.n.WireSize()
	}
	return total
}

// NewDigest returns a digest view over the shared store. Digests are
// unbounded: an entry lives until the digest is cleared.
func (s *Shared) NewDigest() *Digest {
	return &Digest{shared: s}
}

// Digest is a virtual client's view onto a Shared store: it holds only
// notification IDs; content lives once in the store. Digest implements
// Policy, so virtual clients can use shared and private buffering
// interchangeably (experiment E8 compares them).
type Digest struct {
	shared *Shared
	ids    []message.NotificationID
}

// Add implements Policy.
func (d *Digest) Add(n message.Notification, _ time.Time) {
	d.shared.put(n)
	d.ids = append(d.ids, n.ID)
}

// Snapshot implements Policy, fetching contents back from the store.
func (d *Digest) Snapshot(time.Time) []message.Notification {
	out := make([]message.Notification, 0, len(d.ids))
	for _, id := range d.ids {
		if n, ok := d.shared.get(id); ok {
			out = append(out, n)
		}
	}
	return out
}

// Len implements Policy.
func (d *Digest) Len() int { return len(d.ids) }

// Bytes implements Policy: a digest's own footprint is just IDs. The shared
// content is accounted once via Shared.Bytes.
func (d *Digest) Bytes() int {
	const idSize = 24 // publisher ref + seq + timestamp
	return len(d.ids) * idSize
}

// Clear implements Policy, releasing all references.
func (d *Digest) Clear() {
	for _, id := range d.ids {
		d.shared.unref(id)
	}
	d.ids = nil
}

var _ Policy = (*Digest)(nil)
