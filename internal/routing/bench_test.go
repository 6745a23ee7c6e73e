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

// benchMatch drives Table.Match over a subscription-count sweep. The
// warmup pass grows the table's scratch buffers to their steady-state
// size, so the timed loop measures the allocation-free hot path — the CI
// bench job gates on the indexed variant reporting 0 allocs/op.
func benchMatch(b *testing.B, newTable func() *routing.Table) {
	for _, subs := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			tb := newTable()
			fillTable(tb, subs, rng)
			notes := benchNotes(rng)
			for i := range notes {
				_ = tb.Match(notes[i], "none")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tb.Match(notes[i%len(notes)], "none")
			}
		})
	}
}

func BenchmarkMatchIndexed(b *testing.B) { benchMatch(b, routing.NewIndexedTable) }
func BenchmarkMatchLinear(b *testing.B)  { benchMatch(b, routing.NewTable) }

// BenchmarkMatchByLink measures the broker's actual publish hot path —
// grouped link matching with port-only ID collection — on the default
// (indexed) table.
func BenchmarkMatchByLink(b *testing.B) {
	for _, subs := range []int{100, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			tb := routing.NewIndexedTable()
			fillTable(tb, subs, rng)
			notes := benchNotes(rng)
			noPorts := func(message.NodeID) bool { return false }
			for i := range notes {
				_ = tb.MatchByLink(notes[i], "none", noPorts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tb.MatchByLink(notes[i%len(notes)], "none", noPorts)
			}
		})
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

// BenchmarkRouterChurn is a virtual client's life at a broker under
// logical mobility: a subscription from a local port is subscribed and
// unsubscribed again, forwarded to and withdrawn from four broker links,
// on an indexed simple-strategy router holding 1000 other entries. The CI
// bench job gates it at 0 allocs/op: the router's forwards, the table's
// slot, order element and link number, the forward marks and the index's
// bucket all reuse what the previous pair released.
func BenchmarkRouterChurn(b *testing.B) {
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
			b.Fatalf("subscribe forwarded on %d links, want %d", len(fw), len(peers))
		}
		if fw := r.Unsubscribe(s.ID, peers); len(fw) != len(peers) {
			b.Fatalf("unsubscribe forwarded on %d links, want %d", len(fw), len(peers))
		}
	}
	for i := 0; i < 4096; i++ {
		pair()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}
