package sim

import (
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
)

// overlayLine builds a 3-broker line A-B-C with overlay managers on a
// fast virtual-clock heartbeat.
func overlayLine(t *testing.T) *Cluster {
	t.Helper()
	g := movement.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	c, err := NewCluster(ClusterConfig{
		Movement: g,
		Overlay: &overlay.Settings{
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatTimeout:  300 * time.Millisecond,
			BackoffBase:       50 * time.Millisecond,
			BackoffMax:        200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func allEstablished(c *Cluster) bool {
	for _, mgr := range c.Overlays {
		for _, st := range mgr.States() {
			if st != overlay.StateEstablished {
				return false
			}
		}
	}
	return true
}

func TestOverlayHandshakeEstablishesAllLinks(t *testing.T) {
	c := overlayLine(t)
	c.Net.Run()
	if !allEstablished(c) {
		t.Fatalf("links not established after settle: A=%v B=%v C=%v",
			c.Overlays["A"].States(), c.Overlays["B"].States(), c.Overlays["C"].States())
	}
	// The handshake ran on every link, in both directions.
	if got := c.Net.Stats().ByKind[proto.KHello]; got < 4 {
		t.Errorf("expected >= 4 hellos on a 2-edge line, got %d", got)
	}
	if got := c.Net.Stats().ByKind[proto.KSyncInstall]; got < 4 {
		t.Errorf("expected >= 4 sync-installs, got %d", got)
	}
}

func TestOverlayCutQueuesAndHealFlushes(t *testing.T) {
	c := overlayLine(t)
	sub := c.AddClient("sub")
	sub.ConnectTo("A")
	sub.Subscribe(filter.New(filter.Eq("k", message.Int(1))))
	pub := c.AddClient("pub")
	pub.ConnectTo("C")
	c.Net.Run()

	pub.Publish(map[string]message.Value{"k": message.Int(1)})
	c.Net.Run()
	if got := len(sub.Received()); got != 1 {
		t.Fatalf("pre-cut delivery: got %d, want 1", got)
	}

	// Cut the middle link and publish through it: B's overlay manager
	// sees the refused send immediately, queues, and goes degraded.
	c.CutLink("A", "B")
	for i := 2; i <= 6; i++ {
		pub.Publish(map[string]message.Value{"k": message.Int(1)})
	}
	c.Net.Run()
	if got := len(sub.Received()); got != 1 {
		t.Fatalf("cut link leaked deliveries: got %d, want 1", got)
	}
	if st := c.Overlays["B"].State("A"); st != overlay.StateDegraded {
		t.Fatalf("B->A state = %s, want degraded", st)
	}

	// Heal: the dialer's backoff probe re-establishes the link, the sync
	// handshake replays installs, and the queued publishes flush.
	c.HealLink("A", "B")
	c.Net.RunFor(2 * time.Second)
	c.Net.Run()
	if got := len(sub.Received()); got != 6 {
		t.Fatalf("post-heal deliveries: got %d, want 6", got)
	}
	if got := sub.Duplicates(); got != 0 {
		t.Errorf("duplicates after heal: %d", got)
	}
	if !allEstablished(c) {
		t.Error("links did not re-establish after heal")
	}
}

func TestOverlayHeartbeatDetectsSilentCut(t *testing.T) {
	c := overlayLine(t)
	c.Net.Run()
	if !allEstablished(c) {
		t.Fatal("links not established")
	}
	// Cut without any traffic: only the heartbeat can notice. The first
	// tick's ping hits the refused link.
	c.CutLink("B", "C")
	c.Net.RunFor(500 * time.Millisecond)
	if st := c.Overlays["B"].State("C"); st != overlay.StateDegraded {
		t.Fatalf("B->C state after silent cut = %s, want degraded", st)
	}
	if st := c.Overlays["C"].State("B"); st != overlay.StateDegraded {
		t.Fatalf("C->B state after silent cut = %s, want degraded", st)
	}
	c.HealLink("B", "C")
	c.Net.RunFor(2 * time.Second)
	if !allEstablished(c) {
		t.Fatalf("links did not self-heal: B=%v C=%v",
			c.Overlays["B"].States(), c.Overlays["C"].States())
	}
}

func TestOverlaySyncReconcilesStaleEntries(t *testing.T) {
	// A subscription installed before a partition and withdrawn during it:
	// the unsubscription queues on the cut link, and on heal both the
	// pending flush and the sync reconciliation remove the stale entry —
	// whichever arrives first, the tables converge to empty.
	c := overlayLine(t)
	sub := c.AddClient("sub")
	sub.ConnectTo("A")
	id := sub.Subscribe(filter.New(filter.Eq("k", message.Int(1))))
	c.Net.Run()
	if got := c.Brokers["C"].Router().Table().Len(); got != 1 {
		t.Fatalf("C table before cut: %d entries, want 1", got)
	}

	c.CutLink("A", "B")
	sub.Unsubscribe(id)
	c.Net.Run()
	if got := c.Brokers["C"].Router().Table().Len(); got != 1 {
		t.Fatalf("C table during cut: %d entries, want 1 (stale)", got)
	}

	c.HealLink("A", "B")
	c.Net.RunFor(2 * time.Second)
	c.Net.Run()
	for _, id := range []message.NodeID{"A", "B", "C"} {
		if got := c.Brokers[id].Router().Table().Len(); got != 0 {
			t.Errorf("%s table after heal: %d entries, want 0", id, got)
		}
	}
}

func TestOverlayLinkObserverReachesBrokerChain(t *testing.T) {
	g := movement.NewGraph().AddEdge("A", "B")
	rec := &linkRecorder{seen: make(map[message.NodeID]int)}
	c, err := NewCluster(ClusterConfig{
		Movement: g,
		Overlay: &overlay.Settings{
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatTimeout:  300 * time.Millisecond,
		},
		Middleware: []broker.Middleware{rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Run()
	if len(rec.events) == 0 {
		t.Fatal("the chain's LinkObserver stage saw no events")
	}
	established := false
	for _, ev := range rec.events {
		if ev.To == overlay.StateEstablished {
			established = true
		}
	}
	if !established {
		t.Error("no established transition observed")
	}
	// The chain's LinkObserver stage runs per broker; both must have
	// observed their own transitions.
	for _, id := range []message.NodeID{"A", "B"} {
		if rec.seen[id] == 0 {
			t.Errorf("broker %s chain stage saw no link events", id)
		}
	}
}

// linkRecorder is a chain stage implementing broker.LinkObserver.
type linkRecorder struct {
	broker.PassMiddleware
	seen   map[message.NodeID]int
	events []overlay.Event
}

func (r *linkRecorder) OnLinkChange(b *broker.Broker, ev overlay.Event) {
	r.seen[b.ID()]++
	r.events = append(r.events, ev)
}
