package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

func churnSub(i int) proto.Subscription {
	return proto.Subscription{
		ID:     message.SubID(fmt.Sprintf("s%d", i)),
		Filter: filter.New(filter.Eq("k", message.Int(int64(i%5)))),
	}
}

// TestTableChurnKeepsOrderAndMatches drives enough remove/re-add cycles to
// cross the compaction threshold repeatedly and checks the tombstoned
// order against a straightforwardly maintained model: insertion order of
// the live entries, Match results and Len must never drift.
func TestTableChurnKeepsOrderAndMatches(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			tb := NewTable()
			if indexed {
				tb = NewIndexedTable()
			}
			rng := rand.New(rand.NewSource(42))
			var model []proto.Subscription // live entries in insertion order
			next := 0
			add := func() {
				s := churnSub(next)
				next++
				tb.Add(s, message.NodeID(fmt.Sprintf("L%d", next%3)))
				model = append(model, s)
			}
			removeAt := func(i int) {
				id := model[i].ID
				if _, ok := tb.Remove(id); !ok {
					t.Fatalf("remove %s failed", id)
				}
				model = append(model[:i], model[i+1:]...)
			}
			for i := 0; i < 200; i++ {
				add()
			}
			for round := 0; round < 2000; round++ {
				switch {
				case len(model) == 0 || rng.Intn(3) == 0:
					add()
				case rng.Intn(4) == 0:
					// Re-add a removed id: exercises the stale-duplicate slot.
					i := rng.Intn(len(model))
					s := model[i]
					removeAt(i)
					tb.Add(s, "L9")
					model = append(model, s)
				default:
					removeAt(rng.Intn(len(model)))
				}
			}
			checkOrder := func() {
				t.Helper()
				if tb.Len() != len(model) {
					t.Fatalf("Len = %d, want %d", tb.Len(), len(model))
				}
				got := tb.Entries()
				if len(got) != len(model) {
					t.Fatalf("Entries len = %d, want %d", len(got), len(model))
				}
				for i := range model {
					if got[i].Sub.ID != model[i].ID {
						t.Fatalf("insertion order drifted at %d: %s vs %s", i, got[i].Sub.ID, model[i].ID)
					}
				}
			}
			checkOrder()
			// Dropping one link's entries with tombstones outstanding
			// removes exactly those and keeps the others' order.
			if tb.dead == 0 {
				t.Fatal("no tombstones outstanding; the link drop below would not cross any")
			}
			for _, e := range tb.ByLink("L1") {
				if e.Link != "L1" {
					t.Fatalf("ByLink(L1) returned %+v", e)
				}
				removeAt(slices.IndexFunc(model, func(s proto.Subscription) bool { return s.ID == e.Sub.ID }))
			}
			if got := tb.ByLink("L1"); len(got) != 0 {
				t.Fatalf("L1 still has %d entries", len(got))
			}
			checkOrder()
			// Match agreement with a naive scan over the model.
			for k := int64(0); k < 5; k++ {
				n := message.NewNotification(map[string]message.Value{"k": message.Int(k)})
				want := map[message.NodeID]bool{}
				for _, s := range model {
					if s.Filter.Matches(n) {
						e, _ := tb.Get(s.ID)
						want[e.Link] = true
					}
				}
				links := tb.Match(n, "none")
				if len(links) != len(want) {
					t.Fatalf("k=%d: Match = %v, want %d links", k, links, len(want))
				}
				for _, l := range links {
					if !want[l] {
						t.Fatalf("k=%d: unexpected link %s", k, l)
					}
				}
			}
		})
	}
}

// TestTableForgetsChurnedPorts is the bound on churn: clients come, move
// and go on ports never seen again, as virtual clients do under logical
// mobility, and their subscriptions are forwarded on and marked for the
// broker links. A table emptied afterwards holds no ID, no link number and no
// indexed filter, and its slots and link numbers stayed within the peak
// population instead of the number of ports ever seen.
func TestTableForgetsChurnedPorts(t *testing.T) {
	r := NewIndexedRouter(StrategySimple)
	peers := []message.NodeID{"B1", "B2", "B3", "B4"}
	rng := rand.New(rand.NewSource(29))
	var live []message.SubID
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(8) == 0 {
			// A relocation flip: the entry moves to another link.
			id := live[rng.Intn(len(live))]
			e, _ := r.Table().Get(id)
			r.Subscribe(e.Sub, message.NodeID(fmt.Sprintf("port%d-moved", i)), peers)
			continue
		}
		if len(live) < 40 && rng.Intn(2) == 0 || len(live) == 0 {
			s := churnSub(i)
			from := message.NodeID(fmt.Sprintf("port%d", i))
			if rng.Intn(4) == 0 {
				from = peers[rng.Intn(len(peers))]
			}
			r.Subscribe(s, from, peers)
			live = append(live, s.ID)
			continue
		}
		j := rng.Intn(len(live))
		r.Unsubscribe(live[j], peers[:1+rng.Intn(len(peers))])
		live = append(live[:j], live[j+1:]...)
	}
	tb := r.Table()
	if len(tb.rows) > 40 || len(tb.links) > 40+len(peers) {
		t.Errorf("%d slots and %d link numbers after a peak of 40 subscriptions on %d peers", len(tb.rows), len(tb.links), len(peers))
	}
	for _, id := range live {
		r.Unsubscribe(id, peers)
	}
	if tb.Len() != 0 || len(tb.slotOf) != 0 || len(tb.linkNum) != 0 || tb.index.Len() != 0 {
		t.Fatalf("emptied table holds %d IDs, links %v and %d indexed filters", len(tb.slotOf), tb.linkNum, tb.index.Len())
	}
	for n, l := range tb.links {
		if l.refs != 0 {
			t.Fatalf("link number %d (%s) still has %d references", n, l.name, l.refs)
		}
	}
	for slot := range tb.rows {
		if r := &tb.rows[slot]; r.stamp != 0 || r.marks != 0 || len(r.over) != 0 {
			t.Fatalf("vacant slot %d keeps %+v", slot, *r)
		}
	}
}

// TestMatchScratchReuseSafety documents the aliasing contract: the result
// of MatchByLink stays intact through one nested MatchByLink call (the
// double buffer), and the Subs slices never alias between calls.
func TestMatchScratchReuseSafety(t *testing.T) {
	tb := NewIndexedTable()
	tb.Add(churnSub(0), "port0")
	tb.Add(churnSub(5), "port1") // k=0 as well
	n := message.NewNotification(map[string]message.Value{"k": message.Int(0)})
	ports := func(message.NodeID) bool { return true }

	first := tb.MatchByLink(n, "none", ports)
	if len(first) != 2 {
		t.Fatalf("want 2 links, got %v", first)
	}
	firstSubs := first[0].Subs
	// A nested (re-entrant) match must not clobber `first`.
	second := tb.MatchByLink(n, "none", ports)
	if len(first) != 2 || first[0].Link != "port0" || len(first[0].Subs) != 1 {
		t.Fatalf("nested MatchByLink clobbered the outer result: %v", first)
	}
	if &firstSubs[0] == &second[0].Subs[0] {
		t.Fatal("Subs slices alias across calls; they escape into queued deliveries")
	}
}
