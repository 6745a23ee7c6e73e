package telemetry

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"rebeca/internal/message"
)

// DefaultPendingCap bounds the sampler's pending-decision ring: hop paths
// held for not-yet-interesting notifications so a late slow/drop verdict
// can still retro-capture the full trail.
const DefaultPendingCap = 1024

// Sampler decides which notifications earn a retained hop trace. Two
// paths into the span store:
//
//   - Sampled up front: 1-in-N by a deterministic hash of the
//     notification ID, so every broker on a multi-hop path reaches the
//     same verdict with no extra wire bits — a sampled note is stamped at
//     every hop and the delivering broker retains the complete trail.
//   - Retro-captured: unsampled notifications still have their hop
//     stamps parked in a small bounded ring; when a delivery turns out
//     slower than the threshold, or the note hits a drop/rate-limit/
//     flood-fallback branch, the parked path is promoted into the span
//     store tagged with the reason. The paths that matter are never lost
//     to the dice roll.
//
// N and the slow threshold are runtime-tunable (the ops endpoint's
// "sample" and "slow" knobs). N <= 1 samples everything — what a
// deployment traces without WithTraceSampling, since every span enters the
// store through a sampler. Safe for concurrent use.
type Sampler struct {
	spans *SpanStore

	n    atomic.Int64 // sample 1-in-n; <= 1 means every notification
	slow atomic.Int64 // nanoseconds; 0 disables slow-path capture

	mu      sync.Mutex
	pending map[message.NotificationID]pendingPath
	ring    []message.NotificationID
	head    int
	cap     int
	retro   map[string]uint64 // retro-captures by reason

	sampled     atomic.Uint64
	ringDropped atomic.Uint64
}

// pendingInline is how many parked hop stamps fit without allocating —
// sized past typical overlay diameters so the steady-state park is
// alloc-free.
const pendingInline = 4

// pendingPath holds a parked hop trail: the first pendingInline stamps
// inline (the common case — parking must not allocate per notification on
// the publish hot path), the rest spilling to a slice.
type pendingPath struct {
	n    int
	hops [pendingInline]message.HopStamp
	over []message.HopStamp
}

func (p *pendingPath) push(stamp message.HopStamp) {
	if p.n < pendingInline {
		p.hops[p.n] = stamp
	} else {
		p.over = append(p.over, stamp)
	}
	p.n++
}

// path materializes the trail as a slice (promotion only — the rare path).
func (p *pendingPath) path() []message.HopStamp {
	if p.n == 0 {
		return nil
	}
	inline := p.n
	if inline > pendingInline {
		inline = pendingInline
	}
	return append(p.hops[:inline:inline], p.over...)
}

// NewSampler builds a sampler feeding spans. n is the sampling rate
// (1-in-n; <= 1 traces everything), slow the retro-capture latency
// threshold (0 disables it).
func NewSampler(spans *SpanStore, n int64, slow time.Duration) *Sampler {
	s := &Sampler{
		spans:   spans,
		pending: make(map[message.NotificationID]pendingPath, DefaultPendingCap),
		cap:     DefaultPendingCap,
		retro:   make(map[string]uint64),
	}
	s.n.Store(n)
	s.slow.Store(int64(slow))
	return s
}

// Sampled reports whether id is in the 1-in-N sample. Pure and
// deterministic on the ID alone: every broker agrees, call it as often
// as needed.
func (s *Sampler) Sampled(id message.NotificationID) bool {
	n := s.n.Load()
	if n <= 1 {
		return true
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id.Publisher))
	var seq [8]byte
	v := id.Seq
	for i := 0; i < 8; i++ {
		seq[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(seq[:])
	return h.Sum64()%uint64(n) == 0
}

// Observe parks a hop stamp for an unsampled notification in the pending
// ring, available for retro-capture until evicted (drop-oldest).
func (s *Sampler) Observe(id message.NotificationID, stamp message.HopStamp) {
	if id.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if path, ok := s.pending[id]; ok {
		path.push(stamp)
		s.pending[id] = path
		return
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, id)
	} else {
		delete(s.pending, s.ring[s.head])
		s.ringDropped.Add(1)
		s.ring[s.head] = id
		s.head = (s.head + 1) % s.cap
	}
	var path pendingPath
	path.push(stamp)
	s.pending[id] = path
}

// MarkSlow retro-captures id's parked path because its delivery latency
// crossed the slow threshold. Call only after SlowerThan said so.
func (s *Sampler) MarkSlow(id message.NotificationID, latency time.Duration) {
	s.promote(id, latency, "slow")
}

// MarkDropped retro-captures id's parked path because it hit a drop
// branch (reason: "rate-limited", "flood-fallback", ...).
func (s *Sampler) MarkDropped(id message.NotificationID, reason string) {
	s.promote(id, 0, reason)
}

// promote moves a pending path into the span store under reason. Works
// for already-sampled IDs too: the empty pending path merges the reason
// and latency into the existing span.
func (s *Sampler) promote(id message.NotificationID, latency time.Duration, reason string) {
	if id.IsZero() || s.spans == nil {
		return
	}
	s.mu.Lock()
	parked := s.pending[id]
	s.retro[reason]++
	s.mu.Unlock()
	s.spans.RecordReason(id, parked.path(), latency, reason)
}

// SlowerThan reports whether latency crosses the retro-capture threshold
// (false when the threshold is disabled).
func (s *Sampler) SlowerThan(latency time.Duration) bool {
	t := s.slow.Load()
	return t > 0 && latency > time.Duration(t)
}

// SetPendingCap resizes the pending-decision ring at runtime (n <= 0
// restores DefaultPendingCap). Shrinking evicts the oldest parked paths
// (counted in PendingDropped); growing keeps everything parked.
func (s *Sampler) SetPendingCap(n int) {
	if n <= 0 {
		n = DefaultPendingCap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == s.cap {
		return
	}
	// Flatten the circular ring oldest-first, then keep the newest n.
	ordered := make([]message.NotificationID, 0, len(s.ring))
	if len(s.ring) < s.cap {
		ordered = append(ordered, s.ring...)
	} else {
		ordered = append(ordered, s.ring[s.head:]...)
		ordered = append(ordered, s.ring[:s.head]...)
	}
	if drop := len(ordered) - n; drop > 0 {
		for _, id := range ordered[:drop] {
			delete(s.pending, id)
			s.ringDropped.Add(1)
		}
		ordered = ordered[drop:]
	}
	s.cap = n
	s.ring = ordered
	s.head = 0
}

// PendingCap returns the pending-decision ring's current capacity.
func (s *Sampler) PendingCap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap
}

// SetRate tunes the 1-in-N rate at runtime (<= 1 traces everything).
func (s *Sampler) SetRate(n int64) { s.n.Store(n) }

// Rate returns the current 1-in-N sampling rate.
func (s *Sampler) Rate() int64 { return s.n.Load() }

// SetSlowThreshold tunes the retro-capture latency threshold (0 = off).
func (s *Sampler) SetSlowThreshold(d time.Duration) { s.slow.Store(int64(d)) }

// SlowThreshold returns the current retro-capture latency threshold.
func (s *Sampler) SlowThreshold() time.Duration { return time.Duration(s.slow.Load()) }

// SampledCount counts notifications that won the 1-in-N roll here.
func (s *Sampler) SampledCount() uint64 { return s.sampled.Load() }

// RetroCounts returns retro-captures by reason.
func (s *Sampler) RetroCounts() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.retro))
	for k, v := range s.retro {
		out[k] = v
	}
	return out
}

// PendingLen returns the number of paths parked for retro-capture.
func (s *Sampler) PendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// PendingDropped counts parked paths evicted by the ring bound.
func (s *Sampler) PendingDropped() uint64 { return s.ringDropped.Load() }
