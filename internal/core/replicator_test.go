// Integration tests for the replicator layer (§3.2), driven through the
// discrete-event simulator on a corridor of brokers: pre-subscriptions must
// deliver the "listen for a while" semantics on arrival, replicas must
// follow the client around the movement graph, and the exception mode must
// recover from movement-graph violations.
package core_test

import (
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/sim"
)

const tick = time.Millisecond

// corridor is a line of brokers with one region per broker and one menu
// publisher per broker.
type corridor struct {
	t       *testing.T
	cluster *sim.Cluster
	tally   *broker.MechanismTally
	pubs    map[message.NodeID]*client.Client
	mob     *client.Client
}

func newCorridor(t *testing.T, n int, mode sim.ReplicationMode, shared bool) *corridor {
	t.Helper()
	g := movement.Line(n)
	locs := location.Regions(g.Nodes())
	tally := &broker.MechanismTally{}
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:      g,
		Locations:     locs,
		Replication:   mode,
		Mobility:      sim.MobilityTransparent,
		SharedBuffers: shared,
		LinkLatency:   tick,
		Middleware:    []broker.Middleware{tally},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &corridor{t: t, cluster: cl, tally: tally, pubs: make(map[message.NodeID]*client.Client)}
	for _, b := range g.Nodes() {
		p := cl.AddClient("pub@" + b)
		p.ConnectTo(b)
		c.pubs[b] = p
	}
	c.mob = cl.AddClient("mob")
	return c
}

// publishMenu publishes a restaurant-menu notification bound to broker b's
// region.
func (c *corridor) publishMenu(b message.NodeID, dish string) {
	attrs := map[string]message.Value{
		"service": message.String("menu"),
		"dish":    message.String(dish),
	}
	n := message.NewNotification(attrs)
	n = location.Stamp(n, location.Location("region-"+b))
	c.pubs[b].Publish(n.Attrs)
}

func (c *corridor) dishes() []string {
	var out []string
	for _, n := range c.mob.ReceivedNotes() {
		if v, ok := n.Get("dish"); ok {
			out = append(out, v.Str())
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func menuFilter() []filter.Constraint {
	return []filter.Constraint{filter.Eq("service", message.String("menu"))}
}

func TestSetupCreatesNeighborReplicas(t *testing.T) {
	c := newCorridor(t, 4, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B1")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	for b, want := range map[message.NodeID]bool{
		"B0": true, "B1": true, "B2": true, "B3": false,
	} {
		if got := c.cluster.Replicators[b].HasReplica("mob"); got != want {
			t.Errorf("replica at %s = %v, want %v", b, got, want)
		}
	}
	if !c.cluster.Replicators["B1"].ReplicaActive("mob") {
		t.Error("the local virtual client must be active")
	}
	if c.cluster.Replicators["B0"].ReplicaActive("mob") {
		t.Error("neighbor virtual clients must be buffering, not active")
	}
}

func TestPreSubscriptionListenForAWhile(t *testing.T) {
	c := newCorridor(t, 3, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	// Menus published at B1 *before* the client gets there.
	c.publishMenu("B1", "pasta")
	c.publishMenu("B0", "soup")
	c.publishMenu("B2", "sushi") // outside nlb(B0)∪{B0}? B2 ∉ nlb(B0) on a line of 3 -> no replica
	c.cluster.Net.Run()

	// The client hears its current region live.
	if got := c.dishes(); !contains(got, "soup") {
		t.Errorf("current-region menu missing: %v", got)
	}
	if got := c.dishes(); contains(got, "pasta") {
		t.Errorf("remote menu delivered before arrival: %v", got)
	}

	// Move to B1: the buffered pasta menu replays on arrival.
	c.mob.Disconnect()
	c.cluster.Net.RunFor(5 * tick)
	c.mob.ConnectTo("B1")
	c.cluster.Net.Run()

	if got := c.dishes(); !contains(got, "pasta") {
		t.Errorf("pre-subscription replay missing: %v", got)
	}
	if got := c.dishes(); contains(got, "sushi") {
		t.Errorf("menu outside replica coverage should not replay: %v", got)
	}
}

func TestReplicaBuffersOnlyOwnLocation(t *testing.T) {
	c := newCorridor(t, 3, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	c.publishMenu("B1", "pasta")
	c.publishMenu("B0", "soup") // matches B1's replica? no: location=region-B0
	c.cluster.Net.Run()

	if got := c.tally.At("B1", broker.CoreBuffered); got != 1 {
		t.Errorf("B1 replica buffered %d, want exactly its own region's 1", got)
	}
}

func TestHandoverRebalancesReplicaSet(t *testing.T) {
	c := newCorridor(t, 5, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B1")
	c.cluster.Net.Run()

	// newset = nlb(B1) = {B0, B2}; plus the active one at B1.
	for b, want := range map[message.NodeID]bool{
		"B0": true, "B1": true, "B2": true, "B3": false, "B4": false,
	} {
		if got := c.cluster.Replicators[b].HasReplica("mob"); got != want {
			t.Errorf("after move, replica at %s = %v, want %v", b, got, want)
		}
	}

	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B2")
	c.cluster.Net.Run()
	// oldset\newset = nlb(B0)... now: newset = {B1,B3}; B0's replica must
	// be garbage collected.
	if c.cluster.Replicators["B0"].HasReplica("mob") {
		t.Error("B0 replica should be garbage collected after moving to B2")
	}
	if !c.cluster.Replicators["B3"].HasReplica("mob") {
		t.Error("B3 replica should be pre-created after moving to B2")
	}
}

func TestReactiveMissesPreArrivalTraffic(t *testing.T) {
	c := newCorridor(t, 3, sim.ReplicationReactive, false)
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	c.publishMenu("B1", "pasta")
	c.cluster.Net.Run()
	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B1")
	c.cluster.Net.Run()
	if got := c.dishes(); contains(got, "pasta") {
		t.Errorf("reactive baseline must miss pre-arrival menus, got %v", got)
	}
	// But it does hear menus published after arrival + propagation.
	c.publishMenu("B1", "pizza")
	c.cluster.Net.Run()
	if got := c.dishes(); !contains(got, "pizza") {
		t.Errorf("reactive should hear post-arrival menus: %v", got)
	}
	// And no shadow lingers at B0.
	if c.cluster.Replicators["B0"].HasReplica("mob") {
		t.Error("reactive must not leave replicas behind")
	}
}

func TestExceptionModePopUp(t *testing.T) {
	// Line of 5; client teleports B0 -> B4 (not an edge): exception mode
	// creates the virtual client on the fly and fetches the old buffer.
	c := newCorridor(t, 5, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	// While powered off, a menu appears at the old location (buffered by
	// B0's now-inactive virtual client).
	c.publishMenu("B0", "leftover")
	c.cluster.Net.Run()

	c.mob.ConnectTo("B4")
	c.cluster.Net.Run()

	if got := c.tally.At("B4", broker.CoreExceptionActivations); got != 1 {
		t.Errorf("exception activations = %d, want 1", got)
	}
	// Degraded service: the old buffer is fetched across the network.
	if got := c.dishes(); !contains(got, "leftover") {
		t.Errorf("exception fetch should recover the old buffer: %v", got)
	}
	// Fresh local traffic flows after the pop-up.
	c.publishMenu("B4", "fresh")
	c.cluster.Net.Run()
	if got := c.dishes(); !contains(got, "fresh") {
		t.Errorf("post-pop-up traffic missing: %v", got)
	}
	// The stale B0 replica was garbage collected (extended GC rule).
	if c.cluster.Replicators["B0"].HasReplica("mob") {
		t.Error("stale replica at teleport origin should be GCed")
	}
}

func TestRemoveGarbageCollectsEverywhere(t *testing.T) {
	c := newCorridor(t, 4, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B1")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	c.cluster.Replicators["B1"].Remove("mob")
	c.cluster.Net.Run()
	for _, b := range []message.NodeID{"B0", "B1", "B2", "B3"} {
		if c.cluster.Replicators[b].HasReplica("mob") {
			t.Errorf("replica at %s survived removal", b)
		}
	}
	if got := c.cluster.TotalTableEntries(); got != 0 {
		t.Errorf("dangling routing entries after removal: %d", got)
	}
}

func TestSubscriptionChangesPropagateToReplicas(t *testing.T) {
	c := newCorridor(t, 3, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B1")
	sid := c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	// Second location-dependent subscription mid-session.
	c.mob.SubscribeAt(filter.Eq("service", message.String("weather")))
	c.cluster.Net.Run()

	// Weather at a neighbor is buffered by its replica.
	n := message.NewNotification(map[string]message.Value{
		"service": message.String("weather"),
		"temp":    message.Int(19),
	})
	n = location.Stamp(n, "region-B0")
	c.pubs["B0"].Publish(n.Attrs)
	c.cluster.Net.Run()

	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B0")
	c.cluster.Net.Run()
	found := false
	for _, note := range c.mob.ReceivedNotes() {
		if v, ok := note.Get("service"); ok && v.Str() == "weather" {
			found = true
		}
	}
	if !found {
		t.Error("new subscription did not reach the neighbor replica")
	}

	// Unsubscribing the menu sub stops menu buffering at replicas.
	c.mob.Unsubscribe(sid)
	c.cluster.Net.Run()
	before := c.tally.At("B1", broker.CoreBuffered)
	c.publishMenu("B1", "late-menu")
	c.cluster.Net.Run()
	if after := c.tally.At("B1", broker.CoreBuffered); after != before {
		t.Errorf("replica still buffers after unsubscribe: %d -> %d", before, after)
	}
}

func TestSharedBufferModeEndToEnd(t *testing.T) {
	c := newCorridor(t, 3, sim.ReplicationPreSubscribe, true)
	// Two mobile clients with identical interests share buffered content.
	mob2 := c.cluster.AddClient("mob2")
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	mob2.ConnectTo("B2")
	mob2.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	c.publishMenu("B1", "pasta") // buffered by both clients' B1 replicas
	c.cluster.Net.Run()

	if got := c.cluster.Shared["B1"].Len(); got != 1 {
		t.Errorf("shared store at B1 holds %d distinct notes, want 1", got)
	}

	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B1")
	c.cluster.Net.Run()
	if got := c.dishes(); !contains(got, "pasta") {
		t.Errorf("shared-buffer replay missing: %v", got)
	}
}

func TestStaticAndLocationSubsCoexist(t *testing.T) {
	c := newCorridor(t, 3, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B0")
	c.mob.SubscribeAt(menuFilter()...)
	c.mob.Subscribe(filter.New(filter.Eq("service", message.String("stock"))))
	c.cluster.Net.Run()

	// Stock quotes from anywhere arrive regardless of location.
	c.pubs["B2"].Publish(map[string]message.Value{
		"service": message.String("stock"),
		"symbol":  message.String("TUD"),
	})
	c.cluster.Net.Run()
	got := false
	for _, n := range c.mob.ReceivedNotes() {
		if v, ok := n.Get("symbol"); ok && v.Str() == "TUD" {
			got = true
		}
	}
	if !got {
		t.Fatal("static subscription broken with replicator attached")
	}

	// And the static stream survives a physical move losslessly while the
	// location stream adapts.
	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B1")
	c.cluster.Net.Run()
	c.pubs["B2"].Publish(map[string]message.Value{
		"service": message.String("stock"),
		"symbol":  message.String("EPFL"),
	})
	c.publishMenu("B1", "fondue")
	c.cluster.Net.Run()
	var sawStock, sawMenu bool
	for _, n := range c.mob.ReceivedNotes() {
		if v, ok := n.Get("symbol"); ok && v.Str() == "EPFL" {
			sawStock = true
		}
		if v, ok := n.Get("dish"); ok && v.Str() == "fondue" {
			sawMenu = true
		}
	}
	if !sawStock || !sawMenu {
		t.Errorf("after move: stock=%v menu=%v, want both", sawStock, sawMenu)
	}
}

func TestWastedBufferAccounting(t *testing.T) {
	c := newCorridor(t, 4, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B1")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()

	// B0 and B2 replicas buffer; the client then moves B1->B2->B3 and the
	// B0 replica is GCed with its buffer unread -> wasted.
	c.publishMenu("B0", "never-eaten")
	c.cluster.Net.Run()
	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B2")
	c.cluster.Net.Run()
	c.mob.Disconnect()
	c.cluster.Net.RunFor(2 * tick)
	c.mob.ConnectTo("B3")
	c.cluster.Net.Run()

	if c.tally.Total(broker.CoreWasted) == 0 {
		t.Error("unvisited replica buffers should be accounted as wasted")
	}
}

func TestActiveReplicaSurvivesStaleDelete(t *testing.T) {
	// Fast there-and-back: B1 -> B0 -> B1. The rebalance from arriving at
	// B0 may race a delete for B1; the active VC must never be GCed.
	c := newCorridor(t, 3, sim.ReplicationPreSubscribe, false)
	c.mob.ConnectTo("B1")
	c.mob.SubscribeAt(menuFilter()...)
	c.cluster.Net.Run()
	c.mob.Disconnect()
	c.mob.ConnectTo("B0")
	c.mob.Disconnect()
	c.mob.ConnectTo("B1")
	c.cluster.Net.Run()
	if !c.cluster.Replicators["B1"].HasReplica("mob") {
		t.Fatal("active replica lost after rapid there-and-back")
	}
	c.publishMenu("B1", "still-works")
	c.cluster.Net.Run()
	if got := c.dishes(); !contains(got, "still-works") {
		t.Errorf("location stream broken after rapid moves: %v", got)
	}
}
