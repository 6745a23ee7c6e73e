// Package dedup is the middleware's one duplicate-suppression structure: a
// window of recently seen notification IDs per publisher, each ID with a
// small payload. The client's delivery tally, the mobility session's
// relocation merge and a mesh broker's forwarding memory all run on it.
package dedup

import (
	"math/bits"

	"rebeca/internal/message"
)

// DefaultWindow is the per-publisher sliding window of sequence numbers a
// Window retains once a publisher outgrows exact tracking.
const DefaultWindow = 65536

// MaxPublishers bounds a Window's publisher table. Recording an ID of a
// new publisher while the table is full evicts the publisher recorded
// least recently, whose IDs then read as unseen again.
const MaxPublishers = 1024

// Window tracks seen notification IDs in bounded memory, one window per
// publisher, publishers independent of each other, and keeps a payload P
// with every ID it tracks. The contract:
//
//   - Until a publisher has had more than `window` distinct IDs recorded,
//     tracking is exact — identical to an unbounded seen-map.
//   - From the record that exceeds `window` on, the publisher has a floor,
//     max − window (max = highest sequence number recorded): an ID at or
//     below the floor is reported as seen whether it was or not, and has
//     no payload; every ID above the floor stays exact.
//   - At most MaxPublishers publishers are tracked; a new one evicts the
//     one recorded least recently.
//
// The suppression error is thus confined to deliveries lagging more than
// `window` sequence numbers behind a publisher that already overflowed the
// window, and to publishers idle long enough to be evicted.
//
// Per publisher the IDs in (max − window, max] are a bit ring indexed by
// sequence number, with their payloads in a slice beside it: recording is
// O(1) on a stream that arrives in order, and costs one word per 64
// sequence numbers skipped (at most window/64) when max jumps. The ring
// grows with the number of IDs recorded, from 64 sequence numbers to the
// whole window, and stays there: window/8 bytes of bits plus window
// payloads per publisher (P = struct{} costs nothing). While tracking is
// still exact, IDs older than the ring covers are kept in a map of at most
// `window` entries, dropped whole when the floor appears. A payload
// pointer stays valid until the next record of the same publisher, or its
// eviction. Not safe for concurrent use.
type Window[P any] struct {
	window    uint64
	fullWords int    // ring length covering a whole window: a power of two
	tick      uint64 // records so far: the publishers' recency stamps
	byPub     map[message.NodeID]*pubWindow[P]
}

type pubWindow[P any] struct {
	max   uint64
	floor uint64 // 0 = still exact; else max − window
	n     uint64 // distinct IDs recorded, counted while still exact
	last  uint64 // the window's tick at this publisher's latest record
	// ring holds the recorded IDs in (max − span, max], span being the
	// smaller of the window and the ring's 64·len(ring) bits: bit seq mod
	// 64·len(ring) is set iff seq was recorded. Every other bit is clear.
	ring []uint64
	// data[seq mod 64·len(ring)] is seq's payload while its bit is set.
	data []P
	// below indexes the recorded IDs at or below max − span while still
	// exact: below[seq] is where seq's payload sits in belowData.
	below     map[uint64]int
	belowData []P
}

// New builds a window retaining `window` recent sequence numbers per
// publisher (0 = DefaultWindow).
func New[P any](window uint64) *Window[P] {
	if window == 0 {
		window = DefaultWindow
	}
	words := 1
	for uint64(words)*64 < window {
		words *= 2
	}
	return &Window[P]{window: window, fullWords: words, byPub: make(map[message.NodeID]*pubWindow[P])}
}

// Seen records the ID and reports whether it was already seen (or lies at
// or below the publisher's floor, which counts as seen).
func (s *Window[P]) Seen(id message.NotificationID) bool {
	_, seen, _ := s.record(id)
	return seen
}

// Record records the ID and returns its payload, zeroed if the ID is new;
// nil if the ID lies at or below the publisher's floor. evicted reports
// that another publisher was evicted to make room for this one.
func (s *Window[P]) Record(id message.NotificationID) (p *P, evicted bool) {
	p, _, evicted = s.record(id)
	return p, evicted
}

// Find reports whether the ID was seen, without recording it, and returns
// its payload: nil with seen = true when the ID lies at or below the
// publisher's floor.
func (s *Window[P]) Find(id message.NotificationID) (p *P, seen bool) {
	w := s.byPub[id.Publisher]
	if w == nil {
		return nil, false
	}
	return s.find(w, id.Seq)
}

// add makes a window for a new publisher, first evicting the publisher
// recorded least recently when the table is full.
func (s *Window[P]) add(publisher message.NodeID) (w *pubWindow[P], evicted bool) {
	if len(s.byPub) >= MaxPublishers {
		var lru message.NodeID
		oldest := s.tick
		for p, pw := range s.byPub {
			if pw.last < oldest {
				lru, oldest = p, pw.last
			}
		}
		delete(s.byPub, lru)
		evicted = true
	}
	w = &pubWindow[P]{ring: make([]uint64, 1), data: make([]P, 64)}
	s.byPub[publisher] = w
	return w, evicted
}

func (s *Window[P]) span(w *pubWindow[P]) uint64 {
	return min(64*uint64(len(w.ring)), s.window)
}

func (s *Window[P]) find(w *pubWindow[P], seq uint64) (*P, bool) {
	switch {
	case seq <= w.floor:
		return nil, true
	case seq > w.max:
		return nil, false
	case w.max-seq < s.span(w):
		if !hasBit(w.ring, seq) {
			return nil, false
		}
		return &w.data[slot(w.ring, seq)], true
	default:
		i, ok := w.below[seq]
		if !ok {
			return nil, false
		}
		return &w.belowData[i], true
	}
}

// record records the ID and returns its payload, whether it was already
// seen, and whether a publisher was evicted to make room for its own.
func (s *Window[P]) record(id message.NotificationID) (p *P, seen, evicted bool) {
	s.tick++
	w := s.byPub[id.Publisher]
	if w == nil {
		w, evicted = s.add(id.Publisher)
	}
	w.last = s.tick
	seq := id.Seq
	if seq <= w.floor {
		return nil, true, evicted
	}
	span := s.span(w)
	var zero P
	switch {
	case seq > w.max:
		s.advance(w, seq, span)
		p = &w.data[slot(w.ring, seq)]
		*p = zero
	case w.max-seq < span:
		p = &w.data[slot(w.ring, seq)]
		if hasBit(w.ring, seq) {
			return p, true, evicted
		}
		setBit(w.ring, seq)
		*p = zero
	default:
		if i, ok := w.below[seq]; ok {
			return &w.belowData[i], true, evicted
		}
		p = w.keepBelow(seq, zero)
	}
	if w.floor == 0 {
		w.n++
		switch {
		case w.n > s.window:
			// More than a window of IDs, all of them ≥ 1: max > window, and
			// the ring reached full length at window/2 records at the latest.
			w.floor = w.max - s.window
			w.below, w.belowData = nil, nil
		case w.n > 64*uint64(len(w.ring)) && len(w.ring) < s.fullWords:
			s.grow(w)
			p, _ = s.find(w, seq)
		}
	}
	return p, false, evicted
}

// advance records seq as the publisher's new max: the IDs the ring stops
// covering move to below while tracking is exact, and are forgotten once
// there is a floor, which follows max.
func (s *Window[P]) advance(w *pubWindow[P], seq, span uint64) {
	lo := w.max - min(w.max, span) // the ring covers (lo, max]
	hi := seq - min(seq, span)     // and from here on (hi, seq]
	var keep func(uint64)
	if w.floor == 0 {
		keep = func(old uint64) { w.keepBelow(old, w.data[slot(w.ring, old)]) }
	} else {
		w.floor = seq - s.window
	}
	if hi > lo {
		drain(w.ring, lo+1, min(hi, w.max)-lo, keep)
	}
	w.max = seq
	setBit(w.ring, seq)
}

// grow doubles the ring and moves into it, payloads and all, the IDs it
// now covers.
func (s *Window[P]) grow(w *pubWindow[P]) {
	old, oldData, covered := w.ring, w.data, min(w.max, s.span(w))
	w.ring = make([]uint64, 2*len(old))
	w.data = make([]P, 128*len(old))
	drain(old, w.max-covered+1, covered, func(seq uint64) {
		setBit(w.ring, seq)
		w.data[slot(w.ring, seq)] = oldData[slot(old, seq)]
	})
	span := s.span(w)
	kept := make([]P, 0, len(w.below))
	for seq, i := range w.below {
		if w.max-seq < span {
			setBit(w.ring, seq)
			w.data[slot(w.ring, seq)] = w.belowData[i]
			delete(w.below, seq)
		} else {
			w.below[seq] = len(kept)
			kept = append(kept, w.belowData[i])
		}
	}
	w.belowData = kept
}

func (w *pubWindow[P]) keepBelow(seq uint64, v P) *P {
	if w.below == nil {
		w.below = make(map[uint64]int)
	}
	w.below[seq] = len(w.belowData)
	w.belowData = append(w.belowData, v)
	return &w.belowData[len(w.belowData)-1]
}

// A ring's length is a power of two, so sequence number seq sits at bit
// seq mod 64 of word (seq / 64) mod len(ring), and its payload at
// seq mod 64·len(ring).

func slot(ring []uint64, seq uint64) uint64 {
	return seq & (64*uint64(len(ring)) - 1)
}

func hasBit(ring []uint64, seq uint64) bool {
	return ring[(seq>>6)&uint64(len(ring)-1)]&(1<<(seq&63)) != 0
}

func setBit(ring []uint64, seq uint64) {
	ring[(seq>>6)&uint64(len(ring)-1)] |= 1 << (seq & 63)
}

// drain clears the ring's bits for the n sequence numbers from first on
// (at most one lap of the ring), a word at a time, and hands those that
// were set to keep unless keep is nil.
func drain(ring []uint64, first, n uint64, keep func(seq uint64)) {
	for n > 0 {
		bit := first & 63
		k := min(64-bit, n)
		word := &ring[(first>>6)&uint64(len(ring)-1)]
		mask := ^uint64(0) >> (64 - k) << bit
		if keep != nil {
			for set := *word & mask; set != 0; set &= set - 1 {
				keep(first - bit + uint64(bits.TrailingZeros64(set)))
			}
		}
		*word &^= mask
		first += k
		n -= k
	}
}
