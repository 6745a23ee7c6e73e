// Integration tests for the physical-mobility relocation protocol, driven
// through the discrete-event simulator: publishers keep publishing during
// handovers and the tests assert the paper's "transparent, uninterrupted
// flow" guarantee — no loss, no duplicates, per-publisher FIFO — plus the
// deliberately weaker behaviour of the JEDI baseline and of the naive one, a
// broker without a manager.
package mobility_test

import (
	"slices"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/mobility"
	"rebeca/internal/movement"
	"rebeca/internal/proto"
	"rebeca/internal/sim"
	"rebeca/internal/store"
)

// world is a 3-broker line A-B-C with a publisher attached at A publishing
// every tick and a mobile subscriber starting at C.
type world struct {
	t       *testing.T
	cluster *sim.Cluster
	tally   *broker.MechanismTally
	pub     *client.Client
	mob     *client.Client
	ticks   int
}

const tick = time.Millisecond

func newWorld(t *testing.T, mode sim.MobilityMode) *world {
	t.Helper()
	topo := broker.LineTopology([]message.NodeID{"A", "B", "C"})
	tally := &broker.MechanismTally{}
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Topology:    topo,
		Mobility:    mode,
		LinkLatency: tick,
		Middleware:  []broker.Middleware{tally},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, cluster: cl, tally: tally}
	w.pub = cl.AddClient("pub")
	w.mob = cl.AddClient("mob")
	return w
}

// start connects the publisher and the mobile subscriber and lets the
// subscription propagate.
func (w *world) start() {
	w.pub.ConnectTo("A")
	w.mob.ConnectTo("C")
	w.mob.Subscribe(filter.New(filter.Exists("k")))
	w.cluster.Net.Run()
}

// publishEvery schedules n publishes, one per tick, starting one tick from
// now.
func (w *world) publishEvery(n int) {
	for i := 1; i <= n; i++ {
		i := i
		w.cluster.Net.After(time.Duration(i)*tick, func() {
			w.pub.Publish(map[string]message.Value{"k": message.Int(int64(i))})
		})
	}
	w.ticks = n
}

// moveAt schedules a disconnect at d and a reconnect at broker `to` at r.
func (w *world) moveAt(d, r time.Duration, to message.NodeID) {
	w.cluster.Net.After(d, func() { w.mob.Disconnect() })
	w.cluster.Net.After(r, func() { w.mob.ConnectTo(to) })
}

// missing returns the publisher sequence numbers the mobile never received.
func (w *world) missing() []uint64 {
	got := make(map[uint64]bool)
	for _, n := range w.mob.ReceivedNotes() {
		got[n.ID.Seq] = true
	}
	var out []uint64
	for s := uint64(1); s <= uint64(w.ticks); s++ {
		if !got[s] {
			out = append(out, s)
		}
	}
	return out
}

func TestTransparentRelocationLosesNothing(t *testing.T) {
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(100)
	w.moveAt(20*tick, 30*tick, "B")
	w.cluster.Net.Run()

	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("lost %d notifications: %v", len(miss), miss)
	}
	if d := w.mob.Duplicates(); d != 0 {
		t.Errorf("client saw %d duplicates", d)
	}
	if v := w.mob.FIFOViolations(); v != 0 {
		t.Errorf("FIFO violations: %d", v)
	}
	if got := w.tally.At("B", broker.MobilityRelocations); got != 1 {
		t.Errorf("B should have completed 1 relocation, got %d", got)
	}
}

func TestTransparentRelocationLongDistance(t *testing.T) {
	// Move across the whole line (C -> A): the relocation unicasts and
	// the flips they follow traverse multiple hops.
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(150)
	w.moveAt(40*tick, 55*tick, "A")
	w.cluster.Net.Run()
	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("lost: %v", miss)
	}
	if w.mob.Duplicates() != 0 || w.mob.FIFOViolations() != 0 {
		t.Errorf("dups=%d fifo=%d", w.mob.Duplicates(), w.mob.FIFOViolations())
	}
}

// handoverControlMsgs returns the control messages of one transparent
// handover between the two brokers at one end of a line of n brokers.
func handoverControlMsgs(t *testing.T, n int) int {
	t.Helper()
	tally := &broker.MechanismTally{}
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:    movement.Line(n),
		Mobility:    sim.MobilityTransparent,
		LinkLatency: tick,
		Middleware:  []broker.Middleware{tally},
	})
	if err != nil {
		t.Fatal(err)
	}
	mob := cl.AddClient("mob")
	mob.ConnectTo("B0")
	mob.Subscribe(filter.New(filter.Exists("k")))
	mob.Disconnect()
	cl.Net.Run()
	before := cl.Net.Stats().ControlMsgs
	mob.ConnectTo("B1")
	cl.Net.Run()
	if got := tally.At("B1", broker.MobilityRelocations); got != 1 {
		t.Fatalf("Line(%d): B1 completed %d relocations, want 1", n, got)
	}
	return cl.Net.Stats().ControlMsgs - before
}

// The handover's control traffic runs on the path between the two borders
// only: a longer line past them adds nothing.
func TestHandoverCostIsPathNotTree(t *testing.T) {
	short, long := handoverControlMsgs(t, 4), handoverControlMsgs(t, 16)
	if short != long {
		t.Errorf("handover control messages: %d on Line(4), %d on Line(16)", short, long)
	}
}

// stragglerRun moves a subscriber B0 → B3 on B0-B1-B2-B3 while a publisher
// at B1, on the path, publishes every tick, and records what the old border
// B0 sees while it relocates out: after KRelocReq reaches it and before
// KRelocActivate does.
type stragglerRun struct {
	mob   *client.Client
	tally *broker.MechanismTally
	// stragglers are the notes that reached B0 while it relocated out, in
	// arrival order, and late those that reached it after the activate.
	stragglers, late []message.NotificationID
	// tail are the notes of the KRelocTail B0 sent; tapped those of the
	// KDelivers it sent while relocating out.
	tail, tapped []message.NotificationID
	activated    bool
}

const stragglerNotes = 60

// deliveredIDs lists the notes a KDeliver carries: its Note, then a
// replay batch's Notes.
func deliveredIDs(m proto.Message) []message.NotificationID {
	if m.Kind != proto.KDeliver {
		return nil
	}
	var ids []message.NotificationID
	if m.Note != nil {
		ids = append(ids, m.Note.ID)
	}
	for _, n := range m.Notes {
		ids = append(ids, n.ID)
	}
	return ids
}

// runStragglers runs the move. atActivate, when non-nil, runs as the
// activate reaches B0, before B0 handles it.
func runStragglers(t *testing.T, st store.Store, atActivate func()) *stragglerRun {
	t.Helper()
	r := &stragglerRun{tally: &broker.MechanismTally{}}
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:    movement.Line(4),
		Mobility:    sim.MobilityTransparent,
		LinkLatency: tick,
		Store:       st,
		Middleware:  []broker.Middleware{r.tally},
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := cl.AddClient("pub")
	r.mob = cl.AddClient("mob")
	pub.ConnectTo("B1")
	r.mob.ConnectTo("B0")
	r.mob.Subscribe(filter.New(filter.Exists("k")))
	cl.Net.Run()

	var relocating bool
	cl.Net.Trace = func(_ time.Time, from, to message.NodeID, m proto.Message) {
		switch {
		case to == "B0" && m.Kind == proto.KRelocReq:
			relocating = true
		case to == "B0" && m.Kind == proto.KRelocActivate && !r.activated:
			if atActivate != nil {
				atActivate()
			}
			r.activated = true
		case to == "B0" && m.Kind == proto.KPublish && m.Note != nil:
			if r.activated {
				r.late = append(r.late, m.Note.ID)
			} else if relocating {
				r.stragglers = append(r.stragglers, m.Note.ID)
			}
		case from == "B0" && m.Kind == proto.KRelocTail:
			for _, n := range m.Notes {
				r.tail = append(r.tail, n.ID)
			}
		case from == "B0" && m.Kind == proto.KDeliver && relocating && !r.activated:
			r.tapped = append(r.tapped, deliveredIDs(m)...)
		}
	}
	for i := 1; i <= stragglerNotes; i++ {
		i := i
		cl.Net.After(time.Duration(i)*tick, func() {
			pub.Publish(map[string]message.Value{"k": message.Int(int64(i))})
		})
	}
	cl.Net.After(20*tick, func() { r.mob.Disconnect() })
	cl.Net.After(25*tick, func() { r.mob.ConnectTo("B3") })
	cl.Net.Run()

	if !r.activated {
		t.Fatal("B0 never received KRelocActivate")
	}
	if len(r.stragglers) == 0 {
		t.Fatal("no note reached B0 while it relocated out: the schedule tests nothing")
	}
	if len(r.late) != 0 {
		t.Errorf("notes reached B0 after KRelocActivate: %v", r.late)
	}
	return r
}

// checkDelivery fails unless the mobile client got every note once and in
// order.
func (r *stragglerRun) checkDelivery(t *testing.T) {
	t.Helper()
	got := map[uint64]int{}
	for _, n := range r.mob.ReceivedNotes() {
		got[n.ID.Seq]++
	}
	for s := uint64(1); s <= stragglerNotes; s++ {
		if got[s] != 1 {
			t.Errorf("note %d delivered %d times, want 1", s, got[s])
		}
	}
	if d, v := r.mob.Duplicates(), r.mob.FIFOViolations(); d != 0 || v != 0 {
		t.Errorf("dups=%d fifo=%d", d, v)
	}
}

// The ordering a handover relies on: a note a path broker routes toward
// the old border before the new border's relocation flip reaches it
// arrives at the old border ahead of KRelocActivate (the activate follows
// the flip down the same FIFO path). The old border holds it, and the tail
// carries it: no note-carrying KDeliver leaves B0 while it relocates out,
// the tail carries exactly the stragglers, each reaches the client once
// and in order, and mobility.tap_forwarded counts them.
func TestStragglersRideTheTail(t *testing.T) {
	r := runStragglers(t, nil, nil)
	if len(r.tapped) != 0 {
		t.Errorf("B0 sent %d deliveries while relocating out: %v", len(r.tapped), r.tapped)
	}
	if !slices.Equal(r.tail, r.stragglers) {
		t.Errorf("the tail carries %v, want the stragglers %v", r.tail, r.stragglers)
	}
	if got := r.tally.Total(broker.MobilityTapForwarded); got != len(r.stragglers) {
		t.Errorf("mobility.tap_forwarded = %d, want the %d stragglers", got, len(r.stragglers))
	}
	r.checkDelivery(t)
}

// A durable old border appends each straggler to the session's queue
// before holding it. A crash with the activate on its way loses none:
// the session a process on the same store recovers replays every
// straggler to the returning client.
func TestStragglersSurviveACrashBeforeActivate(t *testing.T) {
	mem := store.NewMemory()
	var recovered []proto.Message
	r := runStragglers(t, mem, func() {
		mem.Crash()
		b := broker.New(broker.Config{ID: "B0", Send: func(_ message.NodeID, m proto.Message) {
			recovered = append(recovered, m)
		}})
		mgr := mobility.New(b, mobility.ModeTransparent, mobility.WithStore(mem))
		if n := mgr.Recover(); n != 1 || mgr.SessionState("mob") != "ghost" {
			t.Fatalf("recovered %d sessions, mob's in state %q", n, mgr.SessionState("mob"))
		}
		b.HandleMessage("mob", proto.Message{Kind: proto.KConnect, Client: "mob"})
	})
	replayed := map[message.NotificationID]bool{}
	for _, m := range recovered {
		for _, id := range deliveredIDs(m) {
			replayed[id] = true
		}
	}
	for _, id := range r.stragglers {
		if !replayed[id] {
			t.Errorf("straggler %v is not in the recovered session", id)
		}
	}
	if !slices.Equal(r.tail, r.stragglers) {
		t.Errorf("the tail carries %v, want the stragglers %v", r.tail, r.stragglers)
	}
	r.checkDelivery(t)
}

func TestGhostReconnectSameBroker(t *testing.T) {
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(60)
	// Disconnect and come back to the same broker: ghost buffer replays.
	w.moveAt(20*tick, 40*tick, "C")
	w.cluster.Net.Run()
	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("ghost buffer should cover the gap, lost %v", miss)
	}
	if w.mob.FIFOViolations() != 0 {
		t.Error("replay must preserve publisher order")
	}
}

func TestNaiveLosesGapTraffic(t *testing.T) {
	w := newWorld(t, sim.MobilityNaive)
	w.start()
	w.publishEvery(100)
	w.moveAt(20*tick, 50*tick, "B")
	w.cluster.Net.Run()
	miss := w.missing()
	if len(miss) == 0 {
		t.Fatal("naive mode should lose disconnection-gap traffic")
	}
	// Everything before the disconnect and well after the reconnect must
	// still arrive.
	for _, s := range miss {
		if s < 18 || s > 60 {
			t.Errorf("naive lost seq %d outside the expected window", s)
		}
	}
}

// A broker without a manager is the naive baseline: it withdraws a
// client's subscriptions on disconnect and installs the profile the client's
// hello announces — including a subscription issued while disconnected.
func TestNoManagerWithdrawsAndReinstallsProfile(t *testing.T) {
	w := newWorld(t, sim.MobilityNone)
	w.start()
	if got := w.cluster.TotalTableEntries(); got != 3 {
		t.Fatalf("after subscribe: %d table entries, want 3", got)
	}
	w.mob.Disconnect()
	w.cluster.Net.Run()
	if got := w.cluster.TotalTableEntries(); got != 0 {
		t.Errorf("after disconnect: %d table entries, want 0", got)
	}
	w.mob.Subscribe(filter.New(filter.Exists("j"))) // offline: travels in the next hello
	w.mob.ConnectTo("B")
	w.cluster.Net.Run()
	if got := w.cluster.TotalTableEntries(); got != 6 {
		t.Errorf("after reconnect: %d table entries, want 6", got)
	}
	w.pub.Publish(map[string]message.Value{"j": message.Int(1)})
	w.cluster.Net.Run()
	if got := len(w.mob.ReceivedNotes()); got != 1 {
		t.Errorf("delivered %d of 1 matching publishes", got)
	}
}

func TestJEDILosesOnlyInFlight(t *testing.T) {
	jedi := newWorld(t, sim.MobilityJEDI)
	jedi.start()
	jedi.publishEvery(100)
	jedi.moveAt(20*tick, 50*tick, "B")
	jedi.cluster.Net.Run()
	jediMiss := len(jedi.missing())

	naive := newWorld(t, sim.MobilityNaive)
	naive.start()
	naive.publishEvery(100)
	naive.moveAt(20*tick, 50*tick, "B")
	naive.cluster.Net.Run()
	naiveMiss := len(naive.missing())

	if jediMiss == 0 {
		t.Error("JEDI without the activate and tail should lose some in-flight traffic")
	}
	if jediMiss >= naiveMiss {
		t.Errorf("JEDI (%d lost) should beat naive (%d lost): it buffers the gap",
			jediMiss, naiveMiss)
	}
	if jedi.mob.FIFOViolations() != 0 {
		t.Error("JEDI replay should still be ordered")
	}
}

func TestPingPongMove(t *testing.T) {
	// C -> B -> C with the return happening before the first relocation
	// can possibly complete (reconnect 3 ticks after the away-connect).
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(120)
	w.cluster.Net.After(20*tick, func() { w.mob.Disconnect() })
	w.cluster.Net.After(25*tick, func() { w.mob.ConnectTo("B") })
	w.cluster.Net.After(28*tick, func() { w.mob.Disconnect() })
	w.cluster.Net.After(31*tick, func() { w.mob.ConnectTo("C") })
	w.cluster.Net.Run()

	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("ping-pong lost %v", miss)
	}
	if w.mob.FIFOViolations() != 0 {
		t.Errorf("ping-pong FIFO violations: %d", w.mob.FIFOViolations())
	}
	// No sessions may leak on the intermediate broker.
	if st := w.cluster.Managers["B"].SessionState("mob"); st != "" {
		t.Errorf("B still holds session in state %q", st)
	}
}

func TestChainedMove(t *testing.T) {
	// C -> B -> A with the second hop before the first handover finishes.
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(150)
	w.cluster.Net.After(20*tick, func() { w.mob.Disconnect() })
	w.cluster.Net.After(24*tick, func() { w.mob.ConnectTo("B") })
	w.cluster.Net.After(27*tick, func() { w.mob.Disconnect() })
	w.cluster.Net.After(30*tick, func() { w.mob.ConnectTo("A") })
	w.cluster.Net.Run()

	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("chained move lost %v", miss)
	}
	if w.mob.FIFOViolations() != 0 {
		t.Errorf("chained move FIFO violations: %d", w.mob.FIFOViolations())
	}
	for _, b := range []message.NodeID{"B", "C"} {
		if st := w.cluster.Managers[b].SessionState("mob"); st != "" {
			t.Errorf("%s still holds session %q", b, st)
		}
	}
	if st := w.cluster.Managers["A"].SessionState("mob"); st != "connected" {
		t.Errorf("A session = %q, want connected", st)
	}
}

func TestSubscribeDuringRelocation(t *testing.T) {
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(100)
	w.cluster.Net.After(20*tick, func() { w.mob.Disconnect() })
	w.cluster.Net.After(25*tick, func() { w.mob.ConnectTo("B") })
	// Add a second subscription while the handover is in flight.
	var extra message.SubID
	w.cluster.Net.After(26*tick, func() {
		extra = w.mob.Subscribe(filter.New(filter.Exists("other")))
	})
	w.cluster.Net.After(60*tick, func() {
		w.pub.Publish(map[string]message.Value{"other": message.Int(1)})
	})
	w.cluster.Net.Run()

	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("lost %v", miss)
	}
	found := false
	for _, n := range w.mob.ReceivedNotes() {
		if n.Has("other") {
			found = true
		}
	}
	if !found {
		t.Error("subscription issued mid-relocation never delivered")
	}
	_ = extra
}

func TestUnsubscribeStopsFlowAcrossMove(t *testing.T) {
	topo := broker.LineTopology([]message.NodeID{"A", "B", "C"})
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Topology: topo, Mobility: sim.MobilityTransparent, LinkLatency: tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := cl.AddClient("pub")
	mob := cl.AddClient("mob")
	pub.ConnectTo("A")
	mob.ConnectTo("C")
	sid := mob.Subscribe(filter.New(filter.Exists("k")))
	cl.Net.Run()

	// Move, then unsubscribe at the new broker; later traffic must stop.
	cl.Net.After(5*tick, func() { mob.Disconnect() })
	cl.Net.After(10*tick, func() { mob.ConnectTo("B") })
	cl.Net.After(60*tick, func() { mob.Unsubscribe(sid) })
	cl.Net.Run()
	cl.Net.After(tick, func() {
		pub.Publish(map[string]message.Value{"k": message.Int(99)})
	})
	cl.Net.Run()

	for _, n := range mob.ReceivedNotes() {
		if v, _ := n.Get("k"); v.IntVal() == 99 {
			t.Error("post-unsubscribe notification delivered")
		}
	}
	// All tables must be clean.
	if got := cl.TotalTableEntries(); got != 0 {
		t.Errorf("dangling table entries: %d", got)
	}
}

func TestDisconnectDuringRelocationBecomesGhost(t *testing.T) {
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(120)
	w.cluster.Net.After(20*tick, func() { w.mob.Disconnect() })
	w.cluster.Net.After(24*tick, func() { w.mob.ConnectTo("B") })
	// Drop the link again immediately — before the relocation completes.
	w.cluster.Net.After(26*tick, func() { w.mob.Disconnect() })
	// Come back much later, same broker.
	w.cluster.Net.After(80*tick, func() { w.mob.ConnectTo("B") })
	w.cluster.Net.Run()

	if miss := w.missing(); len(miss) != 0 {
		t.Errorf("ghost-after-relocation lost %v", miss)
	}
	if st := w.cluster.Managers["B"].SessionState("mob"); st != "connected" {
		t.Errorf("B session = %q", st)
	}
}

func TestRelocationStatsProgress(t *testing.T) {
	w := newWorld(t, sim.MobilityTransparent)
	w.start()
	w.publishEvery(100)
	w.moveAt(20*tick, 30*tick, "B")
	w.cluster.Net.Run()
	if w.tally.At("B", broker.MobilityReplayed) == 0 {
		t.Error("handover should replay buffered notifications")
	}
	if w.tally.At("C", broker.MobilityBuffered) == 0 {
		t.Error("old border should have buffered during the gap")
	}
}

// A session profile is stored as a codec message on the WAL. After a
// restart on the same directory the recovered ghost must filter exactly as
// the live session did: for each of the eleven operators, the probe that
// satisfies the subscription is buffered and the one that breaks only that
// operator is not.
func TestRecoveredProfileKeepsFilterSemantics(t *testing.T) {
	dir := t.TempDir()
	tally := &broker.MechanismTally{}
	build := func() (*sim.Cluster, *store.WAL) {
		wal, err := store.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = wal.Close() })
		cl, err := sim.NewCluster(sim.ClusterConfig{
			Topology:    broker.LineTopology([]message.NodeID{"A", "B", "C"}),
			Mobility:    sim.MobilityTransparent,
			LinkLatency: tick,
			Store:       wal,
			Middleware:  []broker.Middleware{tally},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl, wal
	}
	sub := func(k int64, cs ...filter.Constraint) filter.Filter {
		return filter.New(append(cs, filter.Eq("sub", message.Int(k)))...)
	}

	cl, wal := build()
	mob := cl.AddClient("mob")
	mob.ConnectTo("C")
	mob.Subscribe(sub(1,
		filter.Eq("service", message.String("temperature")), filter.Ne("unit", message.String("F")),
		filter.Lt("value", message.Float(25)), filter.Ge("value", message.Float(20))))
	mob.Subscribe(sub(2,
		filter.In("floor", message.Int(1), message.Int(2)), filter.Prefix("room", "r-"),
		filter.Suffix("wing", "-east"), filter.Contains("tag", "lab")))
	mob.Subscribe(sub(3,
		filter.Exists("indoor"), filter.Le("floor", message.Int(2)), filter.Gt("floor", message.Int(1))))
	cl.Net.Run()
	mob.Disconnect()
	cl.Net.Run()
	_ = wal.Close()

	cl2, _ := build() // NewCluster runs Recover on the reopened WAL
	cl2.Net.Run()
	mgr := cl2.Managers["C"]
	recovered, failed := tally.At("C", broker.MobilityRecoveredSessions), tally.At("C", broker.MobilityRecoveryErrors)
	if recovered != 1 || failed != 0 || mgr.SessionState("mob") != "ghost" {
		t.Fatalf("recovery: %d recovered, %d errors, session %q", recovered, failed, mgr.SessionState("mob"))
	}

	// probe i = the note every subscription accepts, with one attribute
	// changed (nil removes it) and addressed to one subscription.
	type probe struct {
		sub  int64
		attr string
		val  any
		want bool
	}
	probes := []probe{
		{1, "", nil, true}, {2, "", nil, true}, {3, "", nil, true},
		{1, "service", message.String("humidity"), false}, // Eq
		{1, "unit", message.String("F"), false},           // Ne
		{1, "value", message.Float(25), false},            // Lt
		{1, "value", message.Float(19.5), false},          // Ge
		{2, "floor", message.Int(3), false},               // In
		{2, "room", message.String("x-7"), false},         // Prefix
		{2, "wing", message.String("north-west"), false},  // Suffix
		{2, "tag", message.String("office"), false},       // Contains
		{3, "indoor", nil, false},                         // Exists
		{3, "floor", message.Int(3), false},               // Le
		{3, "floor", message.Int(1), false},               // Gt
	}
	pub := cl2.AddClient("pub")
	pub.ConnectTo("A")
	for i, p := range probes {
		attrs := map[string]message.Value{
			"service": message.String("temperature"), "value": message.Float(20),
			"floor": message.Int(2), "room": message.String("r-7"), "indoor": message.Bool(true),
			"unit": message.String("C"), "wing": message.String("north-east"), "tag": message.String("biolab2"),
			"sub": message.Int(p.sub), "i": message.Int(int64(i)),
		}
		if v, ok := p.val.(message.Value); ok {
			attrs[p.attr] = v
		} else {
			delete(attrs, p.attr)
		}
		pub.Publish(attrs)
	}
	cl2.Net.Run()

	back := cl2.AddClient("mob") // a fresh process: it holds no profile of its own
	back.ConnectTo("C")
	cl2.Net.Run()
	got := make(map[int64]bool)
	for _, n := range back.ReceivedNotes() {
		v, _ := n.Get("i")
		got[v.IntVal()] = true
	}
	for i, p := range probes {
		if got[int64(i)] != p.want {
			t.Errorf("probe %d (sub %d, %s=%v): delivered %v, want %v", i, p.sub, p.attr, p.val, got[int64(i)], p.want)
		}
	}
}
