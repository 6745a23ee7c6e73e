package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

func sub(id string, f filter.Filter) proto.Subscription {
	return proto.Subscription{ID: message.SubID(id), Filter: f}
}

func eqF(attr string, v int64) filter.Filter {
	return filter.New(filter.Eq(attr, message.Int(v)))
}

func note(attr string, v int64) message.Notification {
	return message.NewNotification(map[string]message.Value{attr: message.Int(v)})
}

func TestTableAddRemoveGet(t *testing.T) {
	tb := NewTable()
	s := sub("s1", eqF("a", 1))
	if replaced := tb.Add(s, "L1"); replaced {
		t.Error("first add should not report replaced")
	}
	if replaced := tb.Add(s, "L2"); !replaced {
		t.Error("second add with same ID should report replaced")
	}
	e, ok := tb.Get("s1")
	if !ok || e.Link != "L2" {
		t.Errorf("Get = %+v,%v; want link L2", e, ok)
	}
	if _, ok := tb.Remove("s1"); !ok {
		t.Error("Remove should find the entry")
	}
	if _, ok := tb.Remove("s1"); ok {
		t.Error("second Remove should miss")
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
}

func TestTableMatchExcludesSourceAndDedupes(t *testing.T) {
	tb := NewTable()
	tb.Add(sub("s1", eqF("a", 1)), "L1")
	tb.Add(sub("s2", eqF("a", 1)), "L1") // same link, also matches
	tb.Add(sub("s3", eqF("a", 1)), "L2")
	tb.Add(sub("s4", eqF("a", 2)), "L3")

	links := tb.Match(note("a", 1), "L2")
	if len(links) != 1 || links[0] != "L1" {
		t.Errorf("Match = %v, want [L1]", links)
	}
	links = tb.Match(note("a", 1), "none")
	if len(links) != 2 || links[0] != "L1" || links[1] != "L2" {
		t.Errorf("Match = %v, want [L1 L2]", links)
	}
	if got := tb.Match(note("a", 9), "none"); len(got) != 0 {
		t.Errorf("non-matching notification matched %v", got)
	}
}

func TestTableMatchEntries(t *testing.T) {
	tb := NewTable()
	tb.Add(sub("s1", eqF("a", 1)), "c1")
	tb.Add(sub("s2", eqF("a", 1)), "c2")
	es := tb.MatchEntries(note("a", 1))
	if len(es) != 2 {
		t.Fatalf("MatchEntries len = %d", len(es))
	}
	if es[0].Sub.ID != "s1" || es[1].Sub.ID != "s2" {
		t.Error("MatchEntries should preserve insertion order")
	}
}

func TestTableByLink(t *testing.T) {
	tb := NewTable()
	tb.Add(sub("s1", eqF("a", 1)), "L1")
	tb.Add(sub("s2", eqF("a", 2)), "L2")
	tb.Add(sub("s3", eqF("a", 3)), "L1")
	got := tb.ByLink("L1")
	if len(got) != 2 || got[0].Sub.ID != "s1" || got[1].Sub.ID != "s3" {
		t.Errorf("ByLink(L1) = %v, want s1, s3 in insertion order", got)
	}
	if got := tb.ByLink("L9"); got != nil {
		t.Errorf("ByLink of an unknown link = %v", got)
	}
}

func TestRouterSimpleForwardsEverywhereElse(t *testing.T) {
	r := NewRouter(StrategySimple)
	links := []message.NodeID{"L1", "L2", "L3"}
	fw := r.Subscribe(sub("s1", eqF("a", 1)), "L1", links)
	if len(fw) != 2 {
		t.Fatalf("forwards = %d, want 2", len(fw))
	}
	for _, f := range fw {
		if f.Link == "L1" {
			t.Error("must not forward back to source link")
		}
		if f.Unsub {
			t.Error("subscription forward marked unsub")
		}
	}
}

func TestRouterSimpleUnsubscribe(t *testing.T) {
	r := NewRouter(StrategySimple)
	links := []message.NodeID{"L1", "L2", "L3"}
	r.Subscribe(sub("s1", eqF("a", 1)), "L1", links)
	fw := r.Unsubscribe("s1", links)
	if len(fw) != 2 {
		t.Fatalf("unsub forwards = %d, want 2", len(fw))
	}
	for _, f := range fw {
		if !f.Unsub {
			t.Error("forward should be an unsubscription")
		}
	}
	if fw2 := r.Unsubscribe("s1", links); fw2 != nil {
		t.Error("unknown unsubscribe should produce no forwards")
	}
}

func TestRouterCoveringSuppression(t *testing.T) {
	r := NewRouter(StrategyCovering)
	links := []message.NodeID{"L1", "L2", "L3"}
	wide := sub("wide", filter.New(filter.Lt("a", message.Int(100))))
	narrow := sub("narrow", filter.New(filter.Lt("a", message.Int(10))))

	fw := r.Subscribe(wide, "L1", links)
	if len(fw) != 2 {
		t.Fatalf("wide forwards = %d, want 2", len(fw))
	}
	// narrow arrives from L2: on L3 it is covered by wide (already
	// forwarded there), so only... wide was forwarded on L2 and L3.
	// narrow needs forwarding on L1 and L3; L3 is covered -> suppressed.
	fw = r.Subscribe(narrow, "L2", links)
	if len(fw) != 1 || fw[0].Link != "L1" {
		t.Fatalf("narrow forwards = %v, want [L1]", fw)
	}
}

func TestRouterCoveringUnsuppressOnUnsubscribe(t *testing.T) {
	r := NewRouter(StrategyCovering)
	links := []message.NodeID{"L1", "L2", "L3"}
	wide := sub("wide", filter.New(filter.Lt("a", message.Int(100))))
	narrow := sub("narrow", filter.New(filter.Lt("a", message.Int(10))))
	r.Subscribe(wide, "L1", links)
	r.Subscribe(narrow, "L2", links)

	fw := r.Unsubscribe("wide", links)
	// Expect: unsub of wide on L2 and L3, plus re-forward (un-suppress) of
	// narrow on L3 (narrow's suppressed link).
	unsubs, resubs := 0, 0
	for _, f := range fw {
		if f.Unsub {
			unsubs++
			if f.Sub.ID != "wide" {
				t.Errorf("unexpected unsub %v", f)
			}
		} else {
			resubs++
			if f.Sub.ID != "narrow" || f.Link != "L3" {
				t.Errorf("unexpected re-forward %v", f)
			}
		}
	}
	if unsubs != 2 || resubs != 1 {
		t.Errorf("unsubs=%d resubs=%d, want 2 and 1", unsubs, resubs)
	}
}

func TestRouterCoveringEquivalentFilters(t *testing.T) {
	// Two identical filters from different links: second is suppressed;
	// removing the first must re-forward the second.
	r := NewRouter(StrategyCovering)
	links := []message.NodeID{"L1", "L2", "L3"}
	a := sub("a", eqF("x", 5))
	b := sub("b", eqF("x", 5))
	r.Subscribe(a, "L1", links)
	fw := r.Subscribe(b, "L2", links)
	// b forwards on L1 (a not forwarded there) but is covered on L3.
	if len(fw) != 1 || fw[0].Link != "L1" {
		t.Fatalf("b forwards = %v", fw)
	}
	fw = r.Unsubscribe("a", links)
	found := false
	for _, f := range fw {
		if !f.Unsub && f.Sub.ID == "b" && f.Link == "L3" {
			found = true
		}
	}
	if !found {
		t.Errorf("b should be re-forwarded on L3 after a leaves, got %v", fw)
	}
}

// TestRouterCoveringForwardsChangedFilter: a subscription re-issued on the
// same link with a new filter is not covered by its own earlier forward —
// downstream must learn the new filter.
func TestRouterCoveringForwardsChangedFilter(t *testing.T) {
	r := NewRouter(StrategyCovering)
	links := []message.NodeID{"L1", "L2", "L3"}
	r.Subscribe(sub("s", filter.New(filter.Lt("a", message.Int(100)))), "L1", links)
	fw := r.Subscribe(sub("s", filter.New(filter.Lt("a", message.Int(10)))), "L1", links)
	if len(fw) != 2 || fw[0].Link != "L2" || fw[1].Link != "L3" {
		t.Errorf("changed filter forwards = %v, want L2 and L3", fw)
	}
}

func TestRouterResubscribeFromNewLinkFlips(t *testing.T) {
	// Relocation: same SubID arrives from a different link; the entry
	// migrates and the flip is forwarded only on the old link — L3's
	// neighbour already routes toward this broker — with no
	// unsubscription (the flip wave is the cleanup).
	r := NewRouter(StrategySimple)
	links := []message.NodeID{"L1", "L2", "L3"}
	s := sub("s", eqF("a", 1))
	r.Subscribe(s, "L1", links)
	fw := r.Subscribe(s, "L2", links)
	e, _ := r.Table().Get("s")
	if e.Link != "L2" {
		t.Errorf("entry link = %s, want L2", e.Link)
	}
	if len(fw) != 1 || fw[0].Link != "L1" || fw[0].Unsub {
		t.Errorf("flip forwards %v, want one subscription on L1", fw)
	}
	// The flip back (a ping-pong move) still reaches L2: the first flip's
	// arrival link lost its mark.
	if fw := r.Subscribe(s, "L1", links); len(fw) != 1 || fw[0].Link != "L2" {
		t.Errorf("flip back forwards %v, want one subscription on L2", fw)
	}
}

func TestRouterFlipBypassesCoveringSuppression(t *testing.T) {
	// A relocation flip must propagate even when another forwarded
	// subscription covers it, or downstream tables keep stale directions.
	r := NewRouter(StrategyCovering)
	links := []message.NodeID{"L1", "L2", "L3"}
	wide := sub("wide", filter.New(filter.Lt("a", message.Int(100))))
	narrow := sub("narrow", filter.New(filter.Lt("a", message.Int(10))))
	r.Subscribe(wide, "L1", links)
	r.Subscribe(narrow, "L2", links) // suppressed on L3
	fw := r.Subscribe(narrow, "L3", links)
	var flipped []message.NodeID
	for _, f := range fw {
		if f.Sub.ID == "narrow" && !f.Unsub {
			flipped = append(flipped, f.Link)
		}
	}
	// L1 already has narrow; L2, its old link, gets the flip although
	// wide, forwarded on L2, covers it.
	if !slices.Equal(flipped, []message.NodeID{"L2"}) {
		t.Errorf("flip forwarded on %v, want [L2]", flipped)
	}
}

// TestRouterDropsMarksOfRemovedSubscriptions: an unsubscription must take
// the subscription's forward marks with it on every link, not only on the
// links still in brokerLinks. After a tree change took L2 away, a mark
// left there would hold L2's link number for a subscription that is gone.
func TestRouterDropsMarksOfRemovedSubscriptions(t *testing.T) {
	r := NewIndexedRouter(StrategySimple)
	both, left := []message.NodeID{"L1", "L2"}, []message.NodeID{"L1"}
	s := sub("s", eqF("a", 1))
	if fw := r.Subscribe(s, "port", both); len(fw) != 2 {
		t.Fatalf("first subscribe forwards %v, want L1 and L2", fw)
	}
	if fw := r.Unsubscribe(s.ID, left); len(fw) != 1 || fw[0].Link != "L1" {
		t.Fatalf("unsubscribe over [L1] forwards %v, want one on L1", fw)
	}
	// No row and no mark is left to hold a link number.
	if len(r.table.linkNum) != 0 {
		t.Errorf("the emptied table still numbers links %v", r.table.linkNum)
	}
	if fw := r.Subscribe(s, "port", both); len(fw) != 2 {
		t.Fatalf("re-subscribe after L2 returned forwards %v, want L1 and L2", fw)
	}
}

func TestCoveringNeverLosesDeliveries(t *testing.T) {
	// Soundness of covering vs simple: any notification deliverable under
	// simple routing must reach the same links under covering, given the
	// suppressed subscription's traffic is a subset of the coverer's.
	rs := NewRouter(StrategySimple)
	rc := NewRouter(StrategyCovering)
	links := []message.NodeID{"L1", "L2", "L3"}
	subs := []struct {
		s    proto.Subscription
		from message.NodeID
	}{
		{sub("w", filter.New(filter.Le("a", message.Int(50)))), "L1"},
		{sub("n1", filter.New(filter.Le("a", message.Int(10)))), "L2"},
		{sub("n2", filter.New(filter.Eq("a", message.Int(5)))), "L3"},
	}
	for _, x := range subs {
		rs.Subscribe(x.s, x.from, links)
		rc.Subscribe(x.s, x.from, links)
	}
	for v := int64(0); v <= 60; v += 5 {
		n := note("a", v)
		for _, from := range links {
			ls := rs.Table().Match(n, from)
			lc := rc.Table().Match(n, from)
			if len(ls) != len(lc) {
				t.Fatalf("tables diverge for a=%d from %s: %v vs %v", v, from, ls, lc)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategySimple.String() != "simple" || StrategyCovering.String() != "covering" {
		t.Error("strategy names wrong")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// TestIndexedTableEquivalence randomizes operations against both table
// variants and asserts identical Match/MatchByLink/MatchEntries results,
// with Entries, MatchByLink's link order and each link's Subs held to a
// model of insertion order.
func TestIndexedTableEquivalence(t *testing.T) {
	linear, indexed := NewTable(), NewIndexedTable()
	both := []*Table{linear, indexed}
	var model []message.SubID // live IDs in insertion order
	add := func(s proto.Subscription, link message.NodeID) {
		if _, ok := indexed.Get(s.ID); !ok {
			model = append(model, s.ID)
		}
		for _, tb := range both {
			tb.Add(s, link)
		}
	}
	remove := func(id message.SubID) {
		if i := slices.Index(model, id); i >= 0 {
			model = slices.Delete(model, i, i+1)
		}
		for _, tb := range both {
			tb.Remove(id)
		}
	}

	subs := []proto.Subscription{
		sub("s1", eqF("a", 1)),
		sub("s2", eqF("a", 2)),
		sub("s3", filter.New(filter.Lt("a", message.Int(5)))),
		sub("s4", filter.New(filter.Exists("b"))),
		sub("s5", filter.New(filter.Eq("a", message.Int(1)), filter.Eq("b", message.Int(2)))),
		sub("s6", filter.All()),
		sub("s7", filter.New(filter.Eq("a", message.Int(1)), filter.Gt("b", message.Int(1)))),
		sub("s8", filter.New(filter.Eq("a", message.Int(4)), filter.Gt("b", message.Int(5)))),
	}
	links := []message.NodeID{"L1", "L2", "L3"}
	for i, s := range subs {
		add(s, links[i%len(links)])
	}
	// Remove one and relocate another.
	remove("s2")
	add(subs[0], "L3")
	notes := []message.Notification{
		note("a", 1), note("a", 2), note("a", 4),
		message.NewNotification(map[string]message.Value{"b": message.Int(2)}),
		message.NewNotification(map[string]message.Value{"a": message.Int(1), "b": message.Int(2)}),
		message.NewNotification(map[string]message.Value{"a": message.Int(4), "b": message.Int(9)}),
		message.NewNotification(map[string]message.Value{"c": message.Int(9)}),
	}
	// Ports come and go (their link numbers are recycled); "none" is a
	// link no entry has.
	froms := append(slices.Clone(links), "p0", "p1", "p2", "none")
	agree := func() {
		t.Helper()
		le, ie := linear.Entries(), indexed.Entries()
		if !reflect.DeepEqual(le, ie) {
			t.Fatalf("Entries diverge: %v vs %v", le, ie)
		}
		rank := make(map[message.SubID]int, len(model))
		for i, e := range ie {
			if i >= len(model) || e.Sub.ID != model[i] {
				t.Fatalf("Entries = %v, want insertion order %v", ie, model)
			}
			rank[e.Sub.ID] = i
		}
		if len(ie) != len(model) {
			t.Fatalf("Entries = %v, want insertion order %v", ie, model)
		}
		for _, n := range notes {
			for _, from := range froms {
				if lm, im := linear.Match(n, from), indexed.Match(n, from); !reflect.DeepEqual(lm, im) {
					t.Fatalf("Match diverges for %s from %s: %v vs %v", n, from, lm, im)
				}
				ll := linear.MatchByLink(n, from, nil)
				il := indexed.MatchByLink(n, from, nil)
				if !reflect.DeepEqual(ll, il) {
					t.Fatalf("MatchByLink diverges for %s from %s: %v vs %v", n, from, ll, il)
				}
				for i, lm := range il {
					if lm.Link == from || (i > 0 && lm.Link <= il[i-1].Link) {
						t.Fatalf("MatchByLink links for %s from %s out of order: %v", n, from, il)
					}
					for j, id := range lm.Subs {
						if e, _ := indexed.Get(id); e.Link != lm.Link || (j > 0 && rank[id] <= rank[lm.Subs[j-1]]) {
							t.Fatalf("MatchByLink %s Subs %v for %s: wrong link or not in insertion order %v", lm.Link, lm.Subs, n, model)
						}
					}
				}
			}
			if le, ie := linear.MatchEntries(n), indexed.MatchEntries(n); !reflect.DeepEqual(le, ie) {
				t.Fatalf("MatchEntries diverges for %s: %v vs %v", n, le, ie)
			}
		}
	}
	agree()

	// The same through churn: adds, removals, replacement under a live ID
	// (new filter, new link) and removed IDs coming back on another link,
	// which reuse slots and link numbers and reorder the index's buckets but
	// must not show in any result.
	r := rand.New(rand.NewSource(16))
	shapes := []func() filter.Filter{
		func() filter.Filter { return eqF("a", r.Int63n(5)) },
		func() filter.Filter {
			return filter.New(filter.Eq("a", message.Int(r.Int63n(5))), filter.Gt("b", message.Int(r.Int63n(10))))
		},
		func() filter.Filter {
			return filter.New(filter.Eq("a", message.Int(r.Int63n(5))), filter.Eq("b", message.Int(r.Int63n(10))))
		},
		func() filter.Filter { return filter.New(filter.Lt("a", message.Int(r.Int63n(5)))) },
		func() filter.Filter { return filter.New(filter.Exists("b")) },
		filter.All,
	}
	gone := map[message.SubID]message.NodeID{} // removed IDs and their last link
	linkOf := froms[:len(froms)-1]
	for step := 0; step < 600; step++ {
		switch op := r.Intn(6); {
		case op < 2 && len(model) > 0:
			id := model[r.Intn(len(model))]
			e, _ := indexed.Get(id)
			gone[id] = e.Link
			remove(id)
		case op == 2 && len(gone) > 0:
			var id message.SubID
			for g := range gone {
				if id == "" || g < id {
					id = g
				}
			}
			link := linkOf[r.Intn(len(linkOf))]
			for link == gone[id] {
				link = linkOf[r.Intn(len(linkOf))]
			}
			delete(gone, id)
			add(sub(string(id), shapes[r.Intn(len(shapes))]()), link)
		default:
			id := message.SubID(fmt.Sprintf("r%d", r.Intn(40)))
			delete(gone, id)
			add(sub(string(id), shapes[r.Intn(len(shapes))]()), linkOf[r.Intn(len(linkOf))])
		}
		agree()
	}
}

func TestTableMatchByLink(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		tb := NewTable()
		if indexed {
			tb = NewIndexedTable()
		}
		tb.Add(sub("s1", filter.New(filter.Eq("a", message.Int(1)))), "L1")
		tb.Add(sub("s2", filter.New(filter.Exists("a"))), "L1")
		tb.Add(sub("s3", filter.New(filter.Exists("a"))), "L2")
		tb.Add(sub("s4", filter.New(filter.Eq("a", message.Int(9)))), "L2")
		tb.Add(sub("s5", filter.New(filter.Exists("a"))), "origin")

		lms := tb.MatchByLink(note("a", 1), "origin", nil)
		if len(lms) != 2 {
			t.Fatalf("indexed=%v: %d links, want 2 (origin excluded): %v", indexed, len(lms), lms)
		}
		if lms[0].Link != "L1" || len(lms[0].Subs) != 2 {
			t.Errorf("indexed=%v: L1 match = %v, want s1+s2", indexed, lms[0])
		}
		if lms[1].Link != "L2" || len(lms[1].Subs) != 1 || lms[1].Subs[0] != "s3" {
			t.Errorf("indexed=%v: L2 match = %v, want [s3]", indexed, lms[1])
		}
		// needSubs limits ID collection to the links it selects.
		lms = tb.MatchByLink(note("a", 1), "origin", func(l message.NodeID) bool { return l == "L2" })
		if len(lms) != 2 || lms[0].Subs != nil || len(lms[1].Subs) != 1 {
			t.Errorf("indexed=%v: with IDs for L2 only, match = %v", indexed, lms)
		}
	}
}
