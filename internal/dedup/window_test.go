package dedup

import (
	"fmt"
	"math/rand"
	"testing"

	"rebeca/internal/message"
)

func TestWindowBound(t *testing.T) {
	s := New[struct{}](4)
	id := func(seq uint64) message.NotificationID {
		return message.NotificationID{Publisher: "p", Seq: seq}
	}
	if s.Seen(id(10)) {
		t.Error("fresh seq reported seen")
	}
	if !s.Seen(id(10)) {
		t.Error("repeat not reported seen")
	}
	// Exact until overflow: an old seq far below the newest is still
	// fresh while the publisher has fewer than `window` entries.
	if s.Seen(id(1)) {
		t.Error("below-window seq reported seen before any pruning")
	}
	if s.Seen(id(8)) || s.Seen(id(9)) || s.Seen(id(20)) {
		t.Error("fresh seqs reported seen")
	}
	// Six entries recorded with window 4: pruning has run, floor = 20-4.
	if !s.Seen(id(16)) {
		t.Error("seq at pruned floor should count as seen")
	}
	if !s.Seen(id(10)) {
		t.Error("pruned seq should count as seen")
	}
	if s.Seen(id(17)) {
		t.Error("fresh in-window seq reported seen after pruning")
	}
	// Other publishers are independent.
	if s.Seen(message.NotificationID{Publisher: "q", Seq: 1}) {
		t.Error("publisher windows must be independent")
	}
}

// TestWindowFloorFollowsMax pins the one line of the contract the model
// check's sequences cannot reach: once a publisher has overflowed the
// window the floor is max − window at every record, also on a stream with
// gaps, where the map this replaced moved its floor only when it held
// more than a window of IDs again.
func TestWindowFloorFollowsMax(t *testing.T) {
	s := New[struct{}](4)
	id := func(seq uint64) message.NotificationID {
		return message.NotificationID{Publisher: "p", Seq: seq}
	}
	for _, seq := range []uint64{1, 2, 3, 4, 10, 20} {
		if s.Seen(id(seq)) {
			t.Fatalf("fresh seq %d reported seen", seq)
		}
	}
	if !s.Seen(id(16)) || !s.Seen(id(12)) {
		t.Error("seq at or below max − window must count as seen")
	}
	if s.Seen(id(17)) || !s.Seen(id(17)) || !s.Seen(id(20)) {
		t.Error("seqs above the floor must stay exact")
	}
}

// mapDedup is the map-per-publisher seen set the client package shipped
// before the bit ring, kept as the oracle of the model check: exact until a
// publisher holds more than window IDs, then everything at or below
// max − window is pruned by a scan of the map and counts as seen.
type mapDedup struct {
	window uint64
	byPub  map[message.NodeID]*mapSeen
}

type mapSeen struct {
	max, floor uint64
	seqs       map[uint64]bool
}

func (s *mapDedup) Seen(id message.NotificationID) bool {
	w := s.byPub[id.Publisher]
	if w == nil {
		w = &mapSeen{seqs: make(map[uint64]bool)}
		s.byPub[id.Publisher] = w
	}
	if id.Seq <= w.floor || w.seqs[id.Seq] {
		return true
	}
	w.seqs[id.Seq] = true
	w.max = max(w.max, id.Seq)
	if uint64(len(w.seqs)) > s.window {
		if w.max > s.window {
			w.floor = max(w.floor, w.max-s.window)
		}
		for seq := range w.seqs {
			if seq <= w.floor {
				delete(w.seqs, seq)
			}
		}
	}
	return false
}

// TestWindowMatchesMapModel drives the ring and the map oracle with the
// same seeded sequences, each running well past the window, and wants the
// same answer from both on every call.
func TestWindowMatchesMapModel(t *testing.T) {
	type call = message.NotificationID
	strided := func(pub message.NodeID, stride, n uint64) []call {
		out := make([]call, n)
		for i := range out {
			out[i] = call{Publisher: pub, Seq: uint64(i+1) * stride}
		}
		return out
	}
	// lagging replays, after every third fresh ID of a dense stream, the
	// ID lag behind it (once there is one).
	lagging := func(lag, n uint64) []call {
		var out []call
		for seq := uint64(1); seq <= n; seq++ {
			out = append(out, call{Publisher: "p", Seq: seq})
			if seq%3 == 0 && seq > lag {
				out = append(out, call{Publisher: "p", Seq: seq - lag})
			}
		}
		return out
	}
	for _, window := range []uint64{4, 64, 65536} {
		// Past the window the oracle scans its whole map on every fresh ID.
		n := window + min(3*window+5, 300)
		rng := rand.New(rand.NewSource(int64(window)))
		shuffled := strided("p", 1, n)
		for lo, block := 0, int(window/2+1); lo < len(shuffled); lo += block {
			part := shuffled[lo:min(lo+block, len(shuffled))]
			rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		}
		var interleaved []call
		for i, q := range strided("q", 7, n) {
			interleaved = append(interleaved, call{Publisher: "p", Seq: uint64(i + 1)}, q)
		}
		sequences := map[string][]call{
			"dense":           strided("p", 1, n),
			"stride2":         strided("p", 2, n),
			"stride7":         strided("p", 7, n),
			"strideWindow":    strided("p", window, n),
			"shuffled":        shuffled,
			"replayInWindow":  lagging(window/2, n),
			"replayAtWindow":  lagging(window, n),
			"replayPastFloor": lagging(window+3, n),
			"twoPublishers":   interleaved,
		}
		for name, calls := range sequences {
			ring := New[struct{}](window)
			model := &mapDedup{window: window, byPub: make(map[message.NodeID]*mapSeen)}
			for i, id := range calls {
				if got, want := ring.Seen(id), model.Seen(id); got != want {
					t.Fatalf("window %d, %s: call %d, Seen(%v) = %v, map model says %v",
						window, name, i, id, got, want)
				}
			}
			// Every recorded ID is seen now, in the window or under the floor.
			for i, id := range calls {
				if !ring.Seen(id) {
					t.Fatalf("window %d, %s: ID %v of call %d not seen on a second pass", window, name, id, i)
				}
			}
		}
	}
}

// TestWindowPayloads writes a payload on every fresh record and wants it
// back from Find for as long as its ID stays above the floor: across the
// ring's growth, a jump of max that moves IDs into below, the growth that
// moves them back, and past the window. A fresh record's payload is zero,
// also in a slot an older ID held. The stream jumps after the floor
// appeared, where the mapDedup oracle's floor lags, so the model is the
// contract itself: which IDs are fresh and where the floor is.
func TestWindowPayloads(t *testing.T) {
	type pubModel struct {
		n, max, floor uint64
		seqs          map[uint64]bool
	}
	for _, window := range []uint64{64, 256, 1000} {
		rng := rand.New(rand.NewSource(int64(window)))
		s := New[uint64](window)
		model := make(map[message.NodeID]*pubModel)
		seen := func(id message.NotificationID) bool {
			m := model[id.Publisher]
			if m == nil {
				m = &pubModel{seqs: make(map[uint64]bool)}
				model[id.Publisher] = m
			}
			if id.Seq <= m.floor || m.seqs[id.Seq] {
				return true
			}
			m.seqs[id.Seq] = true
			m.max = max(m.max, id.Seq)
			if m.n++; m.n > window {
				m.floor = m.max - window
			}
			return false
		}
		payload := make(map[message.NotificationID]uint64)
		var top [2]uint64
		for step := 0; step < 20*int(window); step++ {
			pub := rng.Intn(2)
			switch r := rng.Intn(10); {
			case r < 6 || top[pub] == 0:
				top[pub] += 1 + uint64(rng.Intn(3))
			case r < 7:
				top[pub] += window/2 + uint64(rng.Intn(int(window)))
			default: // a replay, or a late first copy, anywhere below
				top[pub] = max(top[pub], 1)
			}
			id := message.NotificationID{Publisher: message.NodeID(rune('p' + pub)), Seq: top[pub]}
			if rng.Intn(10) >= 7 {
				id.Seq = 1 + uint64(rng.Int63n(int64(top[pub])))
			}
			fresh := !seen(id)
			p, _ := s.Record(id)
			switch {
			case fresh && (p == nil || *p != 0):
				t.Fatalf("window %d, step %d: fresh %v has payload %v, want a zero one", window, step, id, p)
			case fresh:
				*p = rng.Uint64() | 1
				payload[id] = *p
			case p != nil && *p != payload[id]:
				t.Fatalf("window %d, step %d: repeat of %v has payload %d, want %d", window, step, id, *p, payload[id])
			}
			if step%50 != 0 {
				continue
			}
			for id, want := range payload {
				p, seen := s.Find(id)
				if id.Seq <= model[id.Publisher].floor {
					if p != nil || !seen {
						t.Fatalf("window %d, step %d: %v below the floor: payload %v, seen %v", window, step, id, p, seen)
					}
					delete(payload, id)
					continue
				}
				if p == nil || !seen || *p != want {
					t.Fatalf("window %d, step %d: %v: payload %v, seen %v, want %d", window, step, id, p, seen, want)
				}
			}
		}
	}
}

// TestWindowEvictsLeastRecentPublisher: a publisher past MaxPublishers
// evicts the one recorded least recently, which then starts over as new.
func TestWindowEvictsLeastRecentPublisher(t *testing.T) {
	s := New[struct{}](0)
	id := func(i int, seq uint64) message.NotificationID {
		return message.NotificationID{Publisher: message.NodeID(fmt.Sprintf("p%04d", i)), Seq: seq}
	}
	for i := 0; i < MaxPublishers; i++ {
		if _, evicted := s.Record(id(i, 1)); evicted {
			t.Fatalf("publisher %d evicted one with the table not full", i)
		}
	}
	// A record of publisher 0 leaves publisher 1 the least recent; a look
	// at publisher 1 does not count.
	s.Seen(id(0, 2))
	s.Find(id(1, 1))
	if _, evicted := s.Record(id(MaxPublishers, 1)); !evicted {
		t.Fatal("a publisher past MaxPublishers evicted none")
	}
	if len(s.byPub) != MaxPublishers {
		t.Errorf("%d publishers tracked, want %d", len(s.byPub), MaxPublishers)
	}
	if _, seen := s.Find(id(1, 1)); seen {
		t.Error("the least recently recorded publisher was not evicted")
	}
	if _, seen := s.Find(id(0, 1)); !seen {
		t.Error("a recently recorded publisher was evicted")
	}
	// The evicted publisher comes back as new, evicting the next in line.
	if s.Seen(id(1, 1)) {
		t.Error("an evicted publisher's ID still reads as seen")
	}
	if _, seen := s.Find(id(2, 1)); seen {
		t.Error("the returning publisher did not evict the next least recent")
	}
}
