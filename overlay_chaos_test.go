package rebeca_test

import (
	"fmt"
	"testing"
	"time"

	"rebeca"
)

// linkChaos is the overlay-failure surface both deployment flavors
// expose: System cuts the simulated fabric, Live kills TCP conns and
// blocks re-establishment until heal.
type linkChaos interface {
	CutLink(a, b rebeca.NodeID) error
	HealLink(a, b rebeca.NodeID) error
	LinkStates(b rebeca.NodeID) map[rebeca.NodeID]rebeca.LinkState
}

// chaosHarness runs the same scenario code against both flavors:
// advance moves time (virtual Step vs. wall-clock sleep) and waitLinks
// polls for a link-state condition.
type chaosHarness struct {
	d       rebeca.Deployment
	chaos   linkChaos
	advance func(time.Duration)
}

func simChaosHarness(t *testing.T, opts ...rebeca.Option) *chaosHarness {
	t.Helper()
	sys, err := rebeca.New(append(opts,
		rebeca.WithHeartbeat(50*time.Millisecond, 200*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return &chaosHarness{
		d:     sys,
		chaos: sys,
		advance: func(d time.Duration) {
			sys.Step(d)
			sys.Settle()
		},
	}
}

func liveChaosHarness(t *testing.T, opts ...rebeca.Option) *chaosHarness {
	t.Helper()
	d, err := rebeca.NewLive(append(opts,
		rebeca.WithHeartbeat(40*time.Millisecond, 160*time.Millisecond),
		rebeca.WithSettleWindow(60*time.Millisecond, 10*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return &chaosHarness{
		d:     d,
		chaos: d,
		advance: func(dur time.Duration) {
			time.Sleep(dur)
			d.Settle()
		},
	}
}

// waitEstablished polls (advancing time) until every given link is
// established again.
func (h *chaosHarness) waitEstablished(t *testing.T, edges [][2]rebeca.NodeID) {
	t.Helper()
	for i := 0; i < 100; i++ {
		ok := true
		for _, e := range edges {
			if h.chaos.LinkStates(e[0])[e[1]] != rebeca.LinkEstablished ||
				h.chaos.LinkStates(e[1])[e[0]] != rebeca.LinkEstablished {
				ok = false
			}
		}
		if ok {
			return
		}
		h.advance(50 * time.Millisecond)
	}
	t.Fatalf("links never re-established: %v / %v",
		h.chaos.LinkStates("A"), h.chaos.LinkStates("B"))
}

// runLinkFlapScenario is the ISSUE's chaos scenario, shared verbatim by
// the sim and live deployments: a 3-broker line A-B-C, a durable and a
// volatile subscriber at C, a publisher at A. Links are cut and healed
// mid-publish — including killing both of the middle broker's links at
// once (the partition analog of restarting it). Durable subscribers must
// see every notification exactly once and in order (gap-free); volatile
// subscribers must converge (receive post-heal traffic).
func runLinkFlapScenario(t *testing.T, h *chaosHarness) {
	t.Helper()

	durable := h.d.NewClient("durable")
	if err := durable.Connect("C"); err != nil {
		t.Fatal(err)
	}
	f := rebeca.NewFilter(rebeca.Eq("topic", rebeca.String("chaos")))
	dlog := &streamLog{s: durable.Subscribe(f, rebeca.Durable("chaos"), rebeca.WithStreamBuffer(256))}

	volatileSub := h.d.NewClient("volatile")
	if err := volatileSub.Connect("C"); err != nil {
		t.Fatal(err)
	}
	vlog := &streamLog{s: volatileSub.Subscribe(f, rebeca.WithStreamBuffer(256))}

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
				"topic": rebeca.String("chaos"), "n": rebeca.Int(int64(seq)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Wave 1: healthy line.
	wave(5)
	h.advance(100 * time.Millisecond)

	// Cut A-B mid-stream; publishes queue at A's link manager.
	if err := h.chaos.CutLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	h.advance(300 * time.Millisecond) // past detection
	wave(5)
	h.advance(100 * time.Millisecond)
	if err := h.chaos.HealLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	h.waitEstablished(t, [][2]rebeca.NodeID{{"A", "B"}})
	wave(5)
	h.advance(100 * time.Millisecond)

	// Partition the middle broker entirely (both links), then heal —
	// the cut/heal analog of killing and restarting it.
	if err := h.chaos.CutLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := h.chaos.CutLink("B", "C"); err != nil {
		t.Fatal(err)
	}
	h.advance(300 * time.Millisecond)
	wave(5)
	h.advance(100 * time.Millisecond)
	if err := h.chaos.HealLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := h.chaos.HealLink("B", "C"); err != nil {
		t.Fatal(err)
	}
	h.waitEstablished(t, [][2]rebeca.NodeID{{"A", "B"}, {"B", "C"}})
	wave(5)

	// Drain: everything queued must flush.
	for i := 0; i < 50; i++ {
		h.advance(100 * time.Millisecond)
		if len(dlog.drain()) == seq {
			break
		}
	}

	// Durable: gap-free, duplicate-free, in order.
	got := dlog.received(t)
	if len(got) != seq {
		t.Fatalf("durable subscriber: %d deliveries, want %d (gap-free): %v", len(got), seq, gaps(got, seq))
	}
	if d := durable.Duplicates(); d != 0 {
		t.Errorf("durable subscriber saw %d duplicates", d)
	}
	if v := durable.FIFOViolations(); v != 0 {
		t.Errorf("durable subscriber saw %d FIFO violations", v)
	}

	// Volatile: must have converged — the final post-heal wave arrives.
	vGot := vlog.received(t)
	final := false
	for _, d := range vGot {
		if n, ok := d.Note.Attrs["n"]; ok && n.IntVal() == int64(seq) {
			final = true
		}
	}
	if !final {
		t.Errorf("volatile subscriber never converged: last wave missing (have %d deliveries)", len(vGot))
	}
	if v := volatileSub.Duplicates(); v != 0 {
		t.Errorf("volatile subscriber saw %d duplicates", v)
	}
}

// gaps summarizes which sequence numbers are missing (test diagnostics).
func gaps(ds []rebeca.Delivery, want int) string {
	seen := make(map[int64]bool, len(ds))
	for _, d := range ds {
		if n, ok := d.Note.Attrs["n"]; ok {
			seen[n.IntVal()] = true
		}
	}
	missing := ""
	for i := int64(1); i <= int64(want); i++ {
		if !seen[i] {
			missing += fmt.Sprintf(" %d", i)
		}
	}
	if missing == "" {
		return "none"
	}
	return "missing:" + missing
}

func TestLinkFlapChaosSim(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	h := simChaosHarness(t,
		rebeca.WithMovement(g),
		rebeca.WithDurable(rebeca.NewMemoryStore()),
	)
	runLinkFlapScenario(t, h)
}

func TestLinkFlapChaosLive(t *testing.T) {
	if testing.Short() {
		// The live flavor sleeps through real detection/backoff windows;
		// the CI link-flap job runs it in its own lane.
		t.Skip("live link-flap scenario skipped in -short mode")
	}
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	h := liveChaosHarness(t,
		rebeca.WithMovement(g),
		rebeca.WithDurable(rebeca.NewMemoryStore()),
	)
	runLinkFlapScenario(t, h)
}

// TestCutLinkRequiresOverlay: the chaos surface is only meaningful on an
// overlay-managed System.
func TestCutLinkRequiresOverlay(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	sys, err := rebeca.New(rebeca.WithMovement(g))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.CutLink("A", "B"); err == nil {
		t.Fatal("CutLink without WithHeartbeat must fail")
	}
	if got := sys.LinkStates("A"); got != nil {
		t.Fatalf("LinkStates without overlay = %v, want nil", got)
	}
}

// TestLiveCutLinkUnknownBroker: chaos on brokers outside the deployment
// reports the standard unknown-broker error.
func TestLiveCutLinkUnknownBroker(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	d, err := rebeca.NewLive(rebeca.WithMovement(g))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.CutLink("A", "Z"); err == nil {
		t.Fatal("CutLink to an unknown broker must fail")
	}
}
