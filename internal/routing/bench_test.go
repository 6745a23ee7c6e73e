package routing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
)

// fillTable populates a table with n two-constraint subscriptions spread
// over 8 links and 50 rooms — the shape the E3 routing experiments use.
func fillTable(tb *routing.Table, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		f := filter.New(
			filter.Eq("service", message.String("temperature")),
			filter.Eq("location", message.String(fmt.Sprintf("room-%d", rng.Intn(50)))),
		)
		tb.Add(proto.Subscription{ID: message.SubID(fmt.Sprintf("s%d", i)), Filter: f},
			message.NodeID(fmt.Sprintf("L%d", i%8)))
	}
}

func benchNotes(rng *rand.Rand) []message.Notification {
	notes := make([]message.Notification, 256)
	for i := range notes {
		notes[i] = message.NewNotification(map[string]message.Value{
			"service":  message.String("temperature"),
			"location": message.String(fmt.Sprintf("room-%d", rng.Intn(50))),
			"value":    message.Float(rng.Float64() * 40),
		})
	}
	return notes
}

// matchProbe returns match on a table newTable made and filled with subs
// subscriptions, cycling through 256 notes. The warmup pass grows the
// table's scratch buffers to their steady-state size, so the probe is the
// allocation-free hot path TestMatchAllocs holds to 0 allocs.
func matchProbe(newTable func() *routing.Table, subs int, match func(*routing.Table, message.Notification)) func() {
	rng := rand.New(rand.NewSource(7))
	tb := newTable()
	fillTable(tb, subs, rng)
	notes := benchNotes(rng)
	for i := range notes {
		match(tb, notes[i])
	}
	i := 0
	return func() {
		match(tb, notes[i%len(notes)])
		i++
	}
}

func match(tb *routing.Table, n message.Notification) { _ = tb.Match(n, "none") }

// matchByLink is the broker's actual publish hot path: grouped link
// matching with port-only ID collection.
func matchByLink(tb *routing.Table, n message.Notification) {
	_ = tb.MatchByLink(n, "none", func(message.NodeID) bool { return false })
}

var (
	matchSizes       = []int{10, 100, 1000, 10000}
	matchByLinkSizes = []int{100, 10000}
)

// benchOp times op, one call per iteration.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// benchMatch drives Table.Match over a subscription-count sweep.
func benchMatch(b *testing.B, newTable func() *routing.Table) {
	for _, subs := range matchSizes {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) { benchOp(b, matchProbe(newTable, subs, match)) })
	}
}

func BenchmarkMatchIndexed(b *testing.B) { benchMatch(b, routing.NewIndexedTable) }
func BenchmarkMatchLinear(b *testing.B)  { benchMatch(b, routing.NewTable) }

// BenchmarkMatchByLink measures matchByLink on the default (indexed) table.
func BenchmarkMatchByLink(b *testing.B) {
	for _, subs := range matchByLinkSizes {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			benchOp(b, matchProbe(routing.NewIndexedTable, subs, matchByLink))
		})
	}
}

// TestMatchAllocs: indexed Match and MatchByLink allocate nothing at every
// size BenchmarkMatchIndexed and BenchmarkMatchByLink sweep.
func TestMatchAllocs(t *testing.T) {
	for _, subs := range matchSizes {
		if got := testing.AllocsPerRun(300, matchProbe(routing.NewIndexedTable, subs, match)); got != 0 {
			t.Errorf("indexed Match, %d subs: %v allocs, want 0", subs, got)
		}
	}
	for _, subs := range matchByLinkSizes {
		if got := testing.AllocsPerRun(300, matchProbe(routing.NewIndexedTable, subs, matchByLink)); got != 0 {
			t.Errorf("MatchByLink, %d subs: %v allocs, want 0", subs, got)
		}
	}
}

// BenchmarkTableChurn exercises the removal path: a table holding 10k
// subscriptions replaces its oldest entry every iteration (Remove + Add).
// Removal tombstones the entry's order element, so it stays O(1) however
// large the table.
func BenchmarkTableChurn(b *testing.B) {
	for _, variant := range []struct {
		name string
		new  func() *routing.Table
	}{
		{"indexed", routing.NewIndexedTable},
		{"linear", routing.NewTable},
	} {
		b.Run(variant.name, func(b *testing.B) {
			const n = 10000
			rng := rand.New(rand.NewSource(7))
			tb := variant.new()
			fillTable(tb, n, rng)
			f := filter.New(filter.Eq("service", message.String("churn")))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				old := message.SubID(fmt.Sprintf("s%d", i%n))
				if i >= n {
					old = message.SubID(fmt.Sprintf("c%d", i-n))
				}
				if _, ok := tb.Remove(old); !ok {
					b.Fatalf("missing %s", old)
				}
				tb.Add(proto.Subscription{ID: message.SubID(fmt.Sprintf("c%d", i)), Filter: f},
					"L0")
			}
			if tb.Len() != n {
				b.Fatalf("table drifted to %d entries", tb.Len())
			}
		})
	}
}

// routerChurnProbe is a virtual client's life at a broker under logical
// mobility: a subscription from a local port is subscribed and unsubscribed
// again, forwarded to and withdrawn from four broker links, on an indexed
// simple-strategy router holding 1000 other entries. After the warmup the
// router's forwards, the table's slot, order element and link number, the
// forward marks and the index's bucket all reuse what the previous pair
// released.
func routerChurnProbe(tb testing.TB) func() {
	peers := []message.NodeID{"B1", "B2", "B3", "B4"}
	r := routing.NewIndexedRouter(routing.StrategySimple)
	rng := rand.New(rand.NewSource(7))
	fillTable(r.Table(), 1000, rng)
	s := proto.Subscription{ID: "vc/s1", Filter: filter.New(
		filter.Eq("service", message.String("temperature")),
		filter.Eq("location", message.String("room-7")),
	)}
	pair := func() {
		if fw := r.Subscribe(s, "vc", peers); len(fw) != len(peers) {
			tb.Fatalf("subscribe forwarded on %d links, want %d", len(fw), len(peers))
		}
		if fw := r.Unsubscribe(s.ID, peers); len(fw) != len(peers) {
			tb.Fatalf("unsubscribe forwarded on %d links, want %d", len(fw), len(peers))
		}
	}
	for i := 0; i < 4096; i++ {
		pair()
	}
	return pair
}

func BenchmarkRouterChurn(b *testing.B) { benchOp(b, routerChurnProbe(b)) }

// TestRouterChurnAllocs holds BenchmarkRouterChurn's subscribe/unsubscribe
// pair to 0 allocs.
func TestRouterChurnAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(300, routerChurnProbe(t)); got != 0 {
		t.Errorf("router subscribe/unsubscribe pair: %v allocs, want 0", got)
	}
}
