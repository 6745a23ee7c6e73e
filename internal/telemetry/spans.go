package telemetry

import (
	"sort"
	"sync"
	"time"

	"rebeca/internal/message"
)

// DefaultSpanCap is the number of distinct notification IDs a SpanStore
// retains when built with NewSpanStore(0).
const DefaultSpanCap = 4096

// Span is one retained trace: the hop path a notification took, the
// worst end-to-end latency observed for it, and — when the span was
// retro-captured rather than sampled — the reason it was kept ("slow",
// "rate-limited", "flood-fallback", ...).
type Span struct {
	Path    []message.HopStamp
	Latency time.Duration
	Reason  string

	// ver orders span mutations for /trace?since=: every change (new
	// span, longer path, worse latency, first reason) stamps the store's
	// monotone clock, so ExportSince returns exactly the spans that moved
	// since a reader's cursor.
	ver uint64
}

// SpanInfo is the listing row for one retained span — what
// GET /trace (no note) returns per entry.
type SpanInfo struct {
	ID      message.NotificationID
	Hops    int
	Latency time.Duration
	Reason  string
}

// SpanStore retains the hop paths of recently seen notifications, keyed by
// notification ID — the data behind the ops server's /trace endpoint. It
// is a bounded ring over IDs: once full, recording a new ID evicts the
// oldest retained one, so a long-running broker always traces recent
// traffic. Safe for concurrent use.
type SpanStore struct {
	mu      sync.Mutex
	cap     int
	spans   map[message.NotificationID]*Span
	ring    []message.NotificationID
	head    int
	evicted uint64
	clock   uint64 // monotone mutation counter feeding Span.ver
	start   int64  // creation instant (unix ns); names the clock's epoch
}

// NewSpanStore returns a store retaining up to capacity notification
// paths (0 = DefaultSpanCap).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanStore{
		cap:   capacity,
		spans: make(map[message.NotificationID]*Span, capacity),
		start: time.Now().UnixNano(),
	}
}

// Start stamps the store's creation: an ExportSince cursor is valid only
// for the store that issued it, so a reader that sees Start change (the
// process restarted) re-reads from cursor 0.
func (s *SpanStore) Start() int64 { return s.start }

// Record stores a notification's hop path (copied). A notification seen
// again — the same ID observed at a later hop — keeps the longer path: a
// delivering broker has the full trail, an early transit broker a prefix.
func (s *SpanStore) Record(id message.NotificationID, path []message.HopStamp) {
	if id.IsZero() || len(path) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordLocked(id, path, 0, "")
}

// RecordReason stores a retro-captured span: a path (possibly empty —
// the pending ring may have already dropped the stamps), the latency that
// triggered capture, and why it was kept. Re-observations merge: longer
// path wins, latency is max'd, and the first non-empty reason sticks.
func (s *SpanStore) RecordReason(id message.NotificationID, path []message.HopStamp, latency time.Duration, reason string) {
	if id.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordLocked(id, path, latency, reason)
}

func (s *SpanStore) recordLocked(id message.NotificationID, path []message.HopStamp, latency time.Duration, reason string) {
	if sp, ok := s.spans[id]; ok {
		changed := false
		if len(path) > len(sp.Path) {
			sp.Path = append(sp.Path[:0], path...)
			changed = true
		}
		if latency > sp.Latency {
			sp.Latency = latency
			changed = true
		}
		if sp.Reason == "" && reason != "" {
			sp.Reason = reason
			changed = true
		}
		if changed {
			s.clock++
			sp.ver = s.clock
		}
		return
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, id)
	} else {
		delete(s.spans, s.ring[s.head])
		s.evicted++
		s.ring[s.head] = id
		s.head = (s.head + 1) % s.cap
	}
	s.clock++
	s.spans[id] = &Span{
		Path:    append([]message.HopStamp(nil), path...),
		Latency: latency,
		Reason:  reason,
		ver:     s.clock,
	}
}

// Observe records an end-to-end latency for an already retained span
// (max wins); unknown IDs are ignored — latency alone doesn't earn a
// span, sampling or a retro-capture reason does.
func (s *SpanStore) Observe(id message.NotificationID, latency time.Duration) {
	if id.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp, ok := s.spans[id]; ok && latency > sp.Latency {
		sp.Latency = latency
		s.clock++
		sp.ver = s.clock
	}
}

// Get returns the recorded hop path for id (nil when unknown or evicted).
func (s *SpanStore) Get(id message.NotificationID) []message.HopStamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.spans[id]
	if !ok {
		return nil
	}
	return append([]message.HopStamp(nil), sp.Path...)
}

// GetSpan returns the full retained span for id.
func (s *SpanStore) GetSpan(id message.NotificationID) (Span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.spans[id]
	if !ok {
		return Span{}, false
	}
	return Span{
		Path:    append([]message.HopStamp(nil), sp.Path...),
		Latency: sp.Latency,
		Reason:  sp.Reason,
	}, true
}

// List returns up to limit retained spans, newest first (0 = all). This
// is the browsable index behind GET /trace with no note parameter.
func (s *SpanStore) List(limit int) []SpanInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]SpanInfo, 0, limit)
	// Newest entry: before the ring is full, the last append; once full,
	// the slot just behind the next-eviction cursor.
	newest := n - 1
	if n == s.cap {
		newest = (s.head - 1 + s.cap) % s.cap
	}
	for i := 0; i < limit; i++ {
		id := s.ring[(newest-i+n)%n]
		sp, ok := s.spans[id]
		if !ok {
			continue
		}
		out = append(out, SpanInfo{
			ID:      id,
			Hops:    len(sp.Path),
			Latency: sp.Latency,
			Reason:  sp.Reason,
		})
	}
	return out
}

// Len returns the number of retained notification paths.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// Evicted counts paths discarded by the capacity bound.
func (s *SpanStore) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// SpanChange is one span the store mutated since an export cursor: the
// full current span (not a delta — re-reading a grown span is how a
// reader stays idempotent) plus the ID it is retained under.
type SpanChange struct {
	ID   message.NotificationID
	Span Span
}

// ExportSince returns the spans mutated after cursor, oldest mutation
// first, and the cursor to resume from (pass 0 to start from the
// beginning of the store's history). A span that changed again after the
// returned cursor will be returned again by the next call — exports are
// at-least-once and consumers must merge idempotently.
func (s *SpanStore) ExportSince(cursor uint64) ([]SpanChange, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SpanChange
	for id, sp := range s.spans {
		if sp.ver <= cursor {
			continue
		}
		out = append(out, SpanChange{
			ID: id,
			Span: Span{
				Path:    append([]message.HopStamp(nil), sp.Path...),
				Latency: sp.Latency,
				Reason:  sp.Reason,
				ver:     sp.ver,
			},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Span.ver < out[j].Span.ver })
	next := cursor
	if n := len(out); n > 0 {
		next = out[n-1].Span.ver
	}
	return out, next
}
