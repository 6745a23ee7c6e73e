package client

import (
	"math/bits"

	"rebeca/internal/message"
)

// DefaultDedupWindow is the per-publisher sliding window of sequence
// numbers a DedupSet retains once a publisher outgrows exact tracking.
const DefaultDedupWindow = 65536

// DedupSet tracks seen notification IDs in bounded memory, one window per
// publisher, publishers independent of each other. The contract:
//
//   - Until a publisher has had more than `window` distinct IDs recorded,
//     tracking is exact — identical to an unbounded seen-map.
//   - From the record that exceeds `window` on, the publisher has a floor,
//     max − window (max = highest sequence number recorded): an ID at or
//     below the floor is reported as seen whether it was or not; every ID
//     above the floor stays exact.
//
// The suppression error is thus confined to deliveries lagging more than
// `window` sequence numbers behind a publisher that already overflowed the
// window — with the default of 64k, far beyond what the mobility layers'
// replay buffers hold in any configured deployment.
//
// Per publisher the IDs in (max − window, max] are a bit ring indexed by
// sequence number: Seen is O(1) on a stream that arrives in order, and
// costs one word per 64 sequence numbers skipped (at most window/64) when
// max jumps. The ring grows with the number of IDs recorded, from 8 bytes
// to window/8 bytes (8 KB at the default) and stays there. While tracking
// is still exact, IDs older than the ring covers are kept in a map of at
// most `window` entries, dropped whole when the floor appears. Not safe
// for concurrent use.
type DedupSet struct {
	window    uint64
	fullWords int // ring length covering a whole window: a power of two
	byPub     map[message.NodeID]*pubSeen
}

type pubSeen struct {
	max   uint64
	floor uint64 // 0 = still exact; else max − window
	n     uint64 // distinct IDs recorded, counted while still exact
	// ring holds the recorded IDs in (max − span, max], span being the
	// smaller of the window and the ring's 64·len(ring) bits: bit seq mod
	// 64·len(ring) is set iff seq was recorded. Every other bit is clear.
	ring []uint64
	// below holds the recorded IDs at or below max − span while still exact.
	below map[uint64]struct{}
}

// NewDedupSet builds a set retaining `window` recent sequence numbers per
// publisher (0 = DefaultDedupWindow).
func NewDedupSet(window uint64) *DedupSet {
	if window == 0 {
		window = DefaultDedupWindow
	}
	words := 1
	for uint64(words)*64 < window {
		words *= 2
	}
	return &DedupSet{window: window, fullWords: words, byPub: make(map[message.NodeID]*pubSeen)}
}

// Seen records the ID and reports whether it was already seen (or lies at
// or below the publisher's floor, which counts as seen).
func (s *DedupSet) Seen(id message.NotificationID) bool {
	w := s.byPub[id.Publisher]
	if w == nil {
		w = &pubSeen{ring: make([]uint64, 1)}
		s.byPub[id.Publisher] = w
	}
	seq := id.Seq
	if seq <= w.floor {
		return true
	}
	span := s.span(w)
	switch {
	case seq > w.max:
		s.advance(w, seq, span)
	case w.max-seq < span:
		if hasBit(w.ring, seq) {
			return true
		}
		setBit(w.ring, seq)
	default:
		if _, ok := w.below[seq]; ok {
			return true
		}
		w.keepBelow(seq)
	}
	if w.floor == 0 {
		w.n++
		switch {
		case w.n > s.window:
			// More than a window of IDs, all of them ≥ 1: max > window, and
			// the ring reached full length at window/2 records at the latest.
			w.floor = w.max - s.window
			w.below = nil
		case w.n > 64*uint64(len(w.ring)) && len(w.ring) < s.fullWords:
			s.grow(w)
		}
	}
	return false
}

func (s *DedupSet) span(w *pubSeen) uint64 {
	return min(64*uint64(len(w.ring)), s.window)
}

// advance records seq as the publisher's new max: the IDs the ring stops
// covering move to below while tracking is exact, and are forgotten once
// there is a floor, which follows max.
func (s *DedupSet) advance(w *pubSeen, seq, span uint64) {
	lo := w.max - min(w.max, span) // the ring covers (lo, max]
	hi := seq - min(seq, span)     // and from here on (hi, seq]
	var keep func(uint64)
	if w.floor == 0 {
		keep = w.keepBelow
	} else {
		w.floor = seq - s.window
	}
	if hi > lo {
		drain(w.ring, lo+1, min(hi, w.max)-lo, keep)
	}
	w.max = seq
	setBit(w.ring, seq)
}

// grow doubles the ring and moves into it the IDs it now covers.
func (s *DedupSet) grow(w *pubSeen) {
	old, covered := w.ring, min(w.max, s.span(w))
	w.ring = make([]uint64, 2*len(old))
	drain(old, w.max-covered+1, covered, func(seq uint64) { setBit(w.ring, seq) })
	span := s.span(w)
	for seq := range w.below {
		if w.max-seq < span {
			setBit(w.ring, seq)
			delete(w.below, seq)
		}
	}
}

func (w *pubSeen) keepBelow(seq uint64) {
	if w.below == nil {
		w.below = make(map[uint64]struct{})
	}
	w.below[seq] = struct{}{}
}

// A ring's length is a power of two, so sequence number seq sits at bit
// seq mod 64 of word (seq / 64) mod len(ring).

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
