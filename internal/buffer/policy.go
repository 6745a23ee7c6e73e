// Package buffer implements the notification buffering of §4 ("Embedding
// event histories") as one Window with up to three bounds — time-based
// (drop what was published more than t ago), history-based (keep the last
// n) and semantic-based (drop what a newer notification nullifies), in any
// combination — plus the shared per-broker store with digest-holding
// virtual clients that the research agenda proposes to reduce redundant
// memory, and the store-backed Durable wrapper.
//
// Buffering virtual clients use a Policy to record location-relevant
// notifications while no real client is attached; on handover the buffer is
// replayed, giving the arriving client the "subscription in the past"
// semantics (§3.1).
package buffer

import (
	"time"

	"rebeca/internal/message"
)

// Policy is a garbage-collected notification buffer. Implementations are
// not safe for concurrent use; each virtual client owns its policy and is
// driven from a single broker event loop.
type Policy interface {
	// Add records a notification observed at the given (virtual) time.
	Add(n message.Notification, now time.Time)
	// Snapshot returns the live buffer contents in arrival order after
	// garbage-collecting entries expired at `now`. The returned slice is
	// owned by the caller.
	Snapshot(now time.Time) []message.Notification
	// Len returns the current number of buffered notifications (without
	// forcing a GC pass).
	Len() int
	// Bytes approximates resident buffer memory, for experiment E7/E8.
	Bytes() int
	// Clear drops all contents.
	Clear()
}

// Factory creates one Policy per virtual client.
type Factory func() Policy

// entry pairs a notification with its arrival time.
type entry struct {
	n  message.Notification
	at time.Time
}

// NullifyFunc reports whether a new notification supersedes an old one
// (e.g. a fresh menu for the same restaurant), in the spirit of
// semantically reliable multicast [17].
type NullifyFunc func(newer, older message.Notification) bool

// NullifyByKey nullifies older notifications that share the given
// attributes' values with the newer one — the common "latest state per key"
// scheme (latest temperature per room, latest menu per restaurant).
func NullifyByKey(attrs ...string) NullifyFunc {
	return func(newer, older message.Notification) bool {
		for _, a := range attrs {
			nv, nok := newer.Get(a)
			ov, ook := older.Get(a)
			if !nok || !ook || !nv.Equal(ov) {
				return false
			}
		}
		return true
	}
}

// Window is the buffer of §4: notifications in arrival order, bounded by
// age (ttl: "all notifications published more than t seconds ago are
// deleted"), by count (n: the last n are kept) and by supersession (a newer
// notification deletes the older ones it nullifies). "Both schemes can be
// combined": a zero ttl, a zero n or a nil supersedes switches that bound
// off, so the zero Window buffers everything.
type Window struct {
	ttl        time.Duration
	n          int
	supersedes NullifyFunc
	entries    []entry
}

// NewWindow returns a buffer bounded by age ttl and count n (0 disables
// either bound).
func NewWindow(ttl time.Duration, n int) *Window { return &Window{ttl: ttl, n: n} }

// NewSemantic returns a buffer whose newer notifications delete the older
// ones f says they nullify, keeping at most n (0 = no count bound).
func NewSemantic(f NullifyFunc, n int) *Window { return &Window{n: n, supersedes: f} }

// NewUnbounded returns a buffer that keeps everything: the reference policy
// for correctness tests and the degenerate upper bound in E7.
func NewUnbounded() *Window { return &Window{} }

// Add implements Policy. Adding also expires, keeping resident memory
// proportional to the live window.
func (w *Window) Add(n message.Notification, now time.Time) {
	w.expire(now)
	if w.supersedes != nil {
		kept := w.entries[:0]
		for _, e := range w.entries {
			if !w.supersedes(n, e.n) {
				kept = append(kept, e)
			}
		}
		w.entries = kept
	}
	w.entries = append(w.entries, entry{n: n, at: now})
	if w.n > 0 && len(w.entries) > w.n {
		w.entries = append(w.entries[:0], w.entries[len(w.entries)-w.n:]...)
	}
}

// Snapshot implements Policy.
func (w *Window) Snapshot(now time.Time) []message.Notification {
	w.expire(now)
	out := make([]message.Notification, len(w.entries))
	for i, e := range w.entries {
		out[i] = e.n
	}
	return out
}

// Len implements Policy.
func (w *Window) Len() int { return len(w.entries) }

// Bytes implements Policy.
func (w *Window) Bytes() int {
	total := 0
	for _, e := range w.entries {
		total += e.n.WireSize()
	}
	return total
}

// Clear implements Policy.
func (w *Window) Clear() { w.entries = nil }

// expire drops the entries published more than ttl before now.
func (w *Window) expire(now time.Time) {
	if w.ttl == 0 {
		return
	}
	cut := now.Add(-w.ttl)
	i := 0
	for i < len(w.entries) && w.entries[i].at.Before(cut) {
		i++
	}
	if i > 0 {
		w.entries = append(w.entries[:0], w.entries[i:]...)
	}
}

var _ Policy = (*Window)(nil)
