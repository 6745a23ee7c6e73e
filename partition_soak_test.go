package rebeca_test

import (
	"testing"
	"time"

	"rebeca"
)

// The partition-soak proof behind PR 10's outage-proofing: cut a mesh
// link, pump TEN TIMES the link's pending cap through it, heal, and
// require zero volatile gaps plus exactly-once durable replay — the
// store-backed spill must have parked everything the in-memory queue
// could not hold, then replayed it in order ahead of fresh traffic.
// The same scenario runs against both deployment flavors (virtual-clock
// sim, real-TCP live) and, spill-disabled, degrades to bounded,
// truthfully counted drops.

// linkIntrospector is the full-snapshot view both deployment flavors
// grew for PR 10 (System and Live both implement it).
type linkIntrospector interface {
	LinkInfos(b rebeca.NodeID) []rebeca.LinkInfo
}

// linkTo fetches one link's snapshot from a broker's overlay.
func linkTo(t *testing.T, d rebeca.Deployment, b, peer rebeca.NodeID) rebeca.LinkInfo {
	t.Helper()
	intro, ok := d.(linkIntrospector)
	if !ok {
		t.Fatalf("deployment %T does not expose LinkInfos", d)
	}
	for _, li := range intro.LinkInfos(b) {
		if li.Peer == peer {
			return li
		}
	}
	t.Fatalf("broker %s has no link to %s", b, peer)
	return rebeca.LinkInfo{}
}

// runPartitionSoakScenario: a 3-broker line A-B-C, a durable and a
// volatile subscriber at C, a publisher at A. The A-B link is cut and
// 10x the pending cap is published into the partition; exact asserts
// the deterministic sim bookkeeping (the live flavor's enqueue timing
// is not lockstep with Publish returns).
func runPartitionSoakScenario(t *testing.T, h *chaosHarness, cap int, exact bool) {
	t.Helper()

	durable := h.d.NewClient("durable")
	if err := durable.Connect("C"); err != nil {
		t.Fatal(err)
	}
	f := rebeca.NewFilter(rebeca.Eq("topic", rebeca.String("soak")))
	dlog := &streamLog{s: durable.Subscribe(f, rebeca.Durable("soak"), rebeca.WithStreamBuffer(4096))}

	vol := h.d.NewClient("volatile")
	if err := vol.Connect("C"); err != nil {
		t.Fatal(err)
	}
	vlog := &streamLog{s: vol.Subscribe(f, rebeca.WithStreamBuffer(4096))}

	pub := h.d.NewClient("pub")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	h.d.Settle()

	seq := 0
	wave := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if _, err := pub.Publish(map[string]rebeca.Value{
				"topic": rebeca.String("soak"), "n": rebeca.Int(int64(seq)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Healthy warm-up, then cut and let detection fire.
	wave(10)
	h.advance(100 * time.Millisecond)
	if err := h.chaos.CutLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	h.advance(300 * time.Millisecond)

	// The soak: 10x the pending cap into the partition.
	wave(10 * cap)
	h.advance(100 * time.Millisecond)

	// Mid-partition: the overflow is parked in the spill, not dropped.
	li := linkTo(t, h.d, "A", "B")
	if li.Dropped != 0 || li.SpillDropped != 0 {
		t.Fatalf("partition backlog dropped with spill on: %+v", li)
	}
	if li.SpillDepth == 0 {
		t.Fatalf("backlog never spilled (pending=%d): %+v", li.Pending, li)
	}
	if exact && li.SpillDepth != 10*cap-cap {
		t.Fatalf("spill depth = %d, want %d (pending holds the cap, spill the rest)",
			li.SpillDepth, 10*cap-cap)
	}

	// Heal; the spill replays ahead of fresh traffic.
	if err := h.chaos.HealLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	h.waitEstablished(t, [][2]rebeca.NodeID{{"A", "B"}})
	wave(10)
	for i := 0; i < 200; i++ {
		h.advance(100 * time.Millisecond)
		if len(dlog.drain()) == seq && len(vlog.drain()) == seq {
			break
		}
	}

	// Zero volatile gaps: the spill preserved what the queue could not.
	if got := vlog.received(t); len(got) != seq {
		t.Fatalf("volatile subscriber: %d deliveries, want %d: %s", len(got), seq, gaps(got, seq))
	}
	if d := vol.Duplicates(); d != 0 {
		t.Errorf("volatile subscriber saw %d duplicates", d)
	}
	if v := vol.FIFOViolations(); v != 0 {
		t.Errorf("volatile subscriber saw %d FIFO violations", v)
	}

	// Exactly-once durable replay.
	if got := dlog.received(t); len(got) != seq {
		t.Fatalf("durable subscriber: %d deliveries, want %d: %s", len(got), seq, gaps(got, seq))
	}
	if d := durable.Duplicates(); d != 0 {
		t.Errorf("durable subscriber saw %d duplicates", d)
	}
	if v := durable.FIFOViolations(); v != 0 {
		t.Errorf("durable subscriber saw %d FIFO violations", v)
	}

	// The spill drained and compacted; nothing was ever discarded.
	li = linkTo(t, h.d, "A", "B")
	if li.SpillDepth != 0 || li.SpillBytes != 0 {
		t.Errorf("spill not drained after heal: %+v", li)
	}
	if li.Dropped != 0 || li.SpillDropped != 0 {
		t.Errorf("losses under spill: %+v", li)
	}
}

func TestPartitionSoakSim(t *testing.T) {
	const cap = 32
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	h := simChaosHarness(t,
		rebeca.WithMovement(g),
		rebeca.WithDurable(rebeca.NewMemoryStore()),
		rebeca.WithLinkSpill(rebeca.NewMemoryStore(), 0),
		rebeca.WithLinkPendingCap(cap),
	)
	runPartitionSoakScenario(t, h, cap, true)
}

func TestPartitionSoakLive(t *testing.T) {
	if testing.Short() {
		// Real TCP, real detection windows; the CI partition-soak job
		// runs this in its own lane.
		t.Skip("live partition soak skipped in -short mode")
	}
	const cap = 16
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	h := liveChaosHarness(t,
		rebeca.WithMovement(g),
		rebeca.WithDurable(rebeca.NewMemoryStore()),
		rebeca.WithLinkSpill(rebeca.NewMemoryStore(), 0),
		rebeca.WithLinkPendingCap(cap),
	)
	runPartitionSoakScenario(t, h, cap, false)
}

// Spill disabled, same soak: the link degrades gracefully — it keeps the
// newest cap-sized window, and every discarded message is counted
// exactly once on the link's Dropped counter (the "truthful counter"
// requirement: published - dropped == delivered).
func TestPartitionSoakSpillDisabledSim(t *testing.T) {
	const cap = 32
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	h := simChaosHarness(t,
		rebeca.WithMovement(g),
		rebeca.WithLinkPendingCap(cap),
	)

	vol := h.d.NewClient("volatile")
	if err := vol.Connect("C"); err != nil {
		t.Fatal(err)
	}
	f := rebeca.NewFilter(rebeca.Eq("topic", rebeca.String("soak")))
	vlog := &streamLog{s: vol.Subscribe(f, rebeca.WithStreamBuffer(4096))}
	pub := h.d.NewClient("pub")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	h.d.Settle()

	seq := 0
	wave := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if _, err := pub.Publish(map[string]rebeca.Value{
				"topic": rebeca.String("soak"), "n": rebeca.Int(int64(seq)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	wave(10)
	h.advance(100 * time.Millisecond)
	if err := h.chaos.CutLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	h.advance(300 * time.Millisecond)
	wave(10 * cap)
	h.advance(100 * time.Millisecond)

	// Bounded loss: exactly the overflow beyond the cap, counted.
	li := linkTo(t, h.d, "A", "B")
	wantDropped := 10*cap - cap
	if li.Dropped != wantDropped {
		t.Fatalf("dropped = %d, want %d (cap-sized window retained)", li.Dropped, wantDropped)
	}
	if li.SpillDepth != 0 || li.SpillDropped != 0 {
		t.Fatalf("spill engaged while disabled: %+v", li)
	}

	if err := h.chaos.HealLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	h.waitEstablished(t, [][2]rebeca.NodeID{{"A", "B"}})
	wave(10)

	want := seq - wantDropped
	for i := 0; i < 100; i++ {
		h.advance(100 * time.Millisecond)
		if len(vlog.drain()) == want {
			break
		}
	}
	// Truthful accounting: published - dropped == delivered, no dupes.
	if got := vlog.received(t); len(got) != want {
		t.Fatalf("volatile subscriber: %d deliveries, want %d (= %d published - %d dropped)",
			len(got), want, seq, wantDropped)
	}
	if d := vol.Duplicates(); d != 0 {
		t.Errorf("volatile subscriber saw %d duplicates", d)
	}
}
