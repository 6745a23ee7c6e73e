package rebeca_test

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"rebeca"
)

// scenarioResult captures everything the parity check compares.
type scenarioResult struct {
	received   []uint64 // sequence numbers drained from the stream, sorted
	duplicates int
	fifo       int
	deliveries int // metrics middleware, summed over brokers
	border     rebeca.NodeID
	dropped    uint64
}

// streamSeqs cancels the subscription and drains its event stream into a
// sorted sequence-number list.
func streamSeqs(s *rebeca.Subscription) []uint64 {
	s.Cancel()
	var seqs []uint64
	for d := range s.Events() {
		seqs = append(seqs, d.Note.ID.Seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// runHandoverScenario drives one subscribe/publish/handover scenario
// through any Deployment: a mobile subscriber starts at B0, receives a
// batch published from B2, roams to B1 mid-session, and receives a second
// batch — all consumed through the subscription handle's Events stream.
// The scenario code is deployment-agnostic — the acceptance criterion for
// the unified facade.
func runHandoverScenario(t *testing.T, d rebeca.Deployment, metrics *rebeca.Metrics) scenarioResult {
	t.Helper()

	mob := d.NewClient("mob")
	connect(t, mob, "B0")
	sub := mob.Subscribe(rebeca.NewFilter(rebeca.Eq("stream", rebeca.String("s"))),
		rebeca.WithStreamBuffer(32))
	d.Settle()

	pub := d.NewClient("pub")
	connect(t, pub, "B2")
	publish := func(lo, hi int) {
		t.Helper()
		for i := lo; i <= hi; i++ {
			if _, err := pub.Publish(map[string]rebeca.Value{
				"stream": rebeca.String("s"),
				"n":      rebeca.Int(int64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(1, 5)
	d.Settle()

	// Handover: B0 -> B1 while no traffic is in flight.
	if err := mob.Disconnect(); err != nil {
		t.Fatal(err)
	}
	connect(t, mob, "B1")
	d.Settle()

	publish(6, 10)
	d.Settle()

	stats := sub.Stats()
	return scenarioResult{
		received:   streamSeqs(sub),
		duplicates: mob.Duplicates(),
		fifo:       mob.FIFOViolations(),
		deliveries: metrics.Totals().Deliveries,
		border:     mob.Border(),
		dropped:    stats.Dropped,
	}
}

// TestDeploymentParity runs the identical scenario through the
// virtual-clock System and the TCP-backed Live and requires matching
// outcomes, with the Metrics middleware observing identical delivery
// counts on both and the Events stream carrying the same sequences.
func TestDeploymentParity(t *testing.T) {
	simMetrics := rebeca.NewMetrics()
	sys, err := rebeca.New(
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithMiddleware(simMetrics),
	)
	if err != nil {
		t.Fatal(err)
	}
	simRes := runHandoverScenario(t, sys, simMetrics)

	liveMetrics := rebeca.NewMetrics()
	live, err := rebeca.NewLive(
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithMiddleware(liveMetrics),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()
	liveRes := runHandoverScenario(t, live, liveMetrics)

	for name, res := range map[string]scenarioResult{"sim": simRes, "live": liveRes} {
		if len(res.received) != 10 {
			t.Errorf("%s: stream carried %d notifications, want 10 (%v)", name, len(res.received), res.received)
		}
		if res.duplicates != 0 || res.fifo != 0 || res.dropped != 0 {
			t.Errorf("%s: dups=%d fifo=%d dropped=%d, want 0/0/0", name, res.duplicates, res.fifo, res.dropped)
		}
		if res.border != "B1" {
			t.Errorf("%s: border = %s, want B1", name, res.border)
		}
	}
	if fmt.Sprint(simRes.received) != fmt.Sprint(liveRes.received) {
		t.Errorf("delivered sequences differ: sim=%v live=%v", simRes.received, liveRes.received)
	}
	if simRes.deliveries != liveRes.deliveries {
		t.Errorf("metrics deliveries differ: sim=%d live=%d", simRes.deliveries, liveRes.deliveries)
	}
}

// runCancelDuringHandover drives the unsubscribe-while-roaming scenario: a
// mobile client holds two identical subscriptions, cancels one mid-flight
// (after disconnecting, before reconnecting elsewhere, with traffic
// buffered for it at the old border), and must see the cancelled stream
// stay silent after the reconnect while the kept stream replays losslessly
// with no duplicates.
func runCancelDuringHandover(t *testing.T, d rebeca.Deployment) {
	t.Helper()

	f := rebeca.NewFilter(rebeca.Eq("stream", rebeca.String("s")))
	mob := d.NewClient("mob")
	connect(t, mob, "B0")
	keep := mob.Subscribe(f, rebeca.WithStreamBuffer(32))
	drop := mob.Subscribe(f, rebeca.WithStreamBuffer(32))
	d.Settle()

	pub := d.NewClient("pub")
	connect(t, pub, "B2")
	publish := func(lo, hi int) {
		t.Helper()
		for i := lo; i <= hi; i++ {
			if _, err := pub.Publish(map[string]rebeca.Value{
				"stream": rebeca.String("s"),
				"n":      rebeca.Int(int64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(1, 5)
	d.Settle()

	// Roam with a cancellation mid-flight: the wireless link is down, the
	// old border is ghost-buffering, and the profile re-announced at the
	// new border must no longer contain the cancelled subscription.
	if err := mob.Disconnect(); err != nil {
		t.Fatal(err)
	}
	drop.Cancel()
	publish(6, 10) // buffered at the old border while mob is dark
	d.Settle()
	connect(t, mob, "B1")
	d.Settle()
	publish(11, 15)
	d.Settle()

	keepSeqs := streamSeqs(keep)
	if len(keepSeqs) != 15 {
		t.Errorf("kept stream carried %d of 15 (%v)", len(keepSeqs), keepSeqs)
	}
	var dropSeqs []uint64
	for d := range drop.Events() { // already cancelled: drains and terminates
		dropSeqs = append(dropSeqs, d.Note.ID.Seq)
	}
	for _, seq := range dropSeqs {
		if seq > 5 {
			t.Errorf("cancelled stream delivered seq %d after reconnect (%v)", seq, dropSeqs)
		}
	}
	if mob.Duplicates() != 0 || mob.FIFOViolations() != 0 {
		t.Errorf("dups=%d fifo=%d, want 0/0", mob.Duplicates(), mob.FIFOViolations())
	}
}

func TestCancelDuringHandoverParity(t *testing.T) {
	sys, err := rebeca.New(rebeca.WithMovement(rebeca.Line(3)))
	if err != nil {
		t.Fatal(err)
	}
	runCancelDuringHandover(t, sys)

	live, err := rebeca.NewLive(rebeca.WithMovement(rebeca.Line(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()
	runCancelDuringHandover(t, live)
}

// TestOverflowDropPolicies demonstrates DropOldest and DropNewest on a
// bounded stream nobody consumes until after the traffic burst.
func TestOverflowDropPolicies(t *testing.T) {
	sys, err := rebeca.New(rebeca.WithMovement(rebeca.Line(2)))
	if err != nil {
		t.Fatal(err)
	}
	sub := sys.NewClient("sub")
	connect(t, sub, "B0")
	oldest := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")),
		rebeca.WithStreamBuffer(4), rebeca.WithOverflow(rebeca.DropOldest))
	newest := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")),
		rebeca.WithStreamBuffer(4), rebeca.WithOverflow(rebeca.DropNewest))
	sys.Settle()

	pub := sys.NewClient("pub")
	connect(t, pub, "B1")
	for i := 1; i <= 10; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle()

	if got := streamSeqs(oldest); fmt.Sprint(got) != "[7 8 9 10]" {
		t.Errorf("DropOldest retained %v, want the 4 freshest", got)
	}
	if st := oldest.Stats(); st.Dropped != 6 {
		t.Errorf("DropOldest dropped = %d, want 6", st.Dropped)
	}
	if got := streamSeqs(newest); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Errorf("DropNewest retained %v, want the 4 oldest", got)
	}
	if st := newest.Stats(); st.Delivered != 4 || st.Dropped != 6 {
		t.Errorf("DropNewest stats = %+v, want 4 delivered / 6 dropped", st)
	}
}

// TestOverflowBlockSim demonstrates Block under the virtual clock: the
// push waits for a concurrently running consumer, so nothing is ever
// dropped even through a tiny buffer.
func TestOverflowBlockSim(t *testing.T) {
	sys, err := rebeca.New(rebeca.WithMovement(rebeca.Line(2)))
	if err != nil {
		t.Fatal(err)
	}
	sub := sys.NewClient("sub")
	connect(t, sub, "B0")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")),
		rebeca.WithStreamBuffer(2), rebeca.WithOverflow(rebeca.Block))
	sys.Settle()

	var consumed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range s.Events() {
			consumed.Add(1)
		}
	}()

	pub := sys.NewClient("pub")
	connect(t, pub, "B1")
	for i := 1; i <= 50; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle() // blocks on the consumer's pace, never drops
	s.Cancel()
	<-done

	if got := consumed.Load(); got != 50 {
		t.Errorf("consumed %d of 50", got)
	}
	if st := s.Stats(); st.Delivered != 50 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want 50 delivered / 0 dropped", st)
	}
}

// TestOverflowBlockAfterDisconnect: deliveries already on their way when
// the client disconnects end the connect epoch's Block waits, but a push
// that fits the stream is not a wait — every one of them lands.
func TestOverflowBlockAfterDisconnect(t *testing.T) {
	sys, err := rebeca.New(rebeca.WithMovement(rebeca.Line(2)))
	if err != nil {
		t.Fatal(err)
	}
	sub, pub := sys.NewClient("sub"), sys.NewClient("pub")
	connect(t, sub, "B0")
	connect(t, pub, "B0")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")),
		rebeca.WithStreamBuffer(64), rebeca.WithOverflow(rebeca.Block))
	sys.Settle()
	for i := 1; i <= 20; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Disconnect(); err != nil { // the deliveries are still in flight
		t.Fatal(err)
	}
	sys.Settle()
	if st := s.Stats(); st.Delivered != 20 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want 20 delivered / 0 dropped", st)
	}
}

// TestOverflowBlockLiveBackpressure demonstrates the Block policy slowing
// a Live publisher end to end: a stalled consumer exhausts the client's
// delivery credit window, the border broker's event loop blocks, the
// broker-to-broker link backs up, and the publisher's TCP sends stall —
// until the consumer starts draining, after which every notification
// arrives with nothing dropped.
func TestOverflowBlockLiveBackpressure(t *testing.T) {
	const total = 6000

	live, err := rebeca.NewLive(
		rebeca.WithMovement(rebeca.Line(2)),
		rebeca.WithDeliveryWindow(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()

	sub := live.NewClient("sub")
	connect(t, sub, "B0")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")),
		rebeca.WithStreamBuffer(2), rebeca.WithOverflow(rebeca.Block))
	live.Settle()

	// A fat payload keeps the number of notifications the kernel socket
	// buffers and broker inboxes can absorb well below `total`.
	payload := rebeca.String(string(make([]byte, 4096)))

	pub := live.NewClient("pub")
	connect(t, pub, "B1")
	var published atomic.Int64
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 1; i <= total; i++ {
			if _, err := pub.Publish(map[string]rebeca.Value{
				"n":   rebeca.Int(int64(i)),
				"pad": payload,
			}); err != nil {
				return
			}
			published.Add(1)
		}
	}()

	// Phase 1: nobody consumes. The publisher must stall well short of
	// total once the window, inboxes and socket buffers are full.
	deadline := time.Now().Add(10 * time.Second)
	var stalledAt int64
	for time.Now().Before(deadline) {
		cur := published.Load()
		time.Sleep(250 * time.Millisecond)
		if cur == published.Load() && cur > 0 {
			stalledAt = cur
			break
		}
	}
	if stalledAt == 0 {
		t.Fatal("publisher never stalled")
	}
	if stalledAt >= total {
		t.Fatalf("publisher finished all %d publishes despite a stalled Block consumer", total)
	}

	// Phase 2: drain. The backpressure releases and everything arrives.
	var consumed atomic.Int64
	go func() {
		for range s.Events() {
			consumed.Add(1)
		}
	}()
	select {
	case <-pubDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("publisher still blocked after drain started (published %d)", published.Load())
	}
	waitFor := time.Now().Add(30 * time.Second)
	for consumed.Load() < total && time.Now().Before(waitFor) {
		time.Sleep(10 * time.Millisecond)
	}
	s.Cancel()

	if got := consumed.Load(); got != total {
		t.Errorf("consumed %d of %d", got, total)
	}
	if st := s.Stats(); st.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (Block never discards)", st.Dropped)
	}
	if sub.Duplicates() != 0 || sub.FIFOViolations() != 0 {
		t.Errorf("dups=%d fifo=%d", sub.Duplicates(), sub.FIFOViolations())
	}
	t.Logf("publisher stalled at %d/%d before the consumer started", stalledAt, total)
}

// TestLiveRequiresTreeGraph documents the live deployment's topology
// constraint.
func TestLiveRequiresTreeGraph(t *testing.T) {
	if _, err := rebeca.NewLive(rebeca.WithMovement(rebeca.Ring(4))); err == nil {
		t.Error("NewLive on a ring graph should fail (tree required)")
	}
}

// TestLiveLocationReplay runs the logical-mobility flow (pre-subscription,
// roam, replay) over real TCP, consumed through the subscription stream.
func TestLiveLocationReplay(t *testing.T) {
	live, err := rebeca.NewLive(rebeca.WithMovement(rebeca.Line(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()

	mob := live.NewClient("mob")
	connect(t, mob, "B0")
	s := mob.SubscribeAt(rebeca.Eq("service", rebeca.String("menu")))
	live.Settle()

	pub := live.NewClient("pub")
	connect(t, pub, "B1")
	n := rebeca.Notification{Attrs: map[string]rebeca.Value{
		"service": rebeca.String("menu"),
		"dish":    rebeca.String("pasta"),
	}}
	n = rebeca.StampLocation(n, "region-B1")
	if _, err := pub.Publish(n.Attrs); err != nil {
		t.Fatal(err)
	}
	live.Settle()

	if got := s.Stats().Delivered; got != 0 {
		t.Fatalf("stream delivered %d before arrival, want 0", got)
	}
	if err := mob.Disconnect(); err != nil {
		t.Fatal(err)
	}
	connect(t, mob, "B1")
	live.Settle()
	if got := streamSeqs(s); len(got) != 1 {
		t.Errorf("pre-subscription replay over TCP got %v, want 1 event", got)
	}
}
