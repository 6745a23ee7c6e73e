package wire

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/mobility"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// fastOverlay keeps live-test reconnects snappy.
func fastOverlay() overlay.Settings {
	return overlay.Settings{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		BackoffBase:       20 * time.Millisecond,
		BackoffMax:        150 * time.Millisecond,
	}
}

// reserveAddr grabs a loopback port and releases it for a node to bind.
// The tiny window between Close and the node's Listen is the standard
// test-only race; SO_REUSEADDR makes rebinding reliable in practice.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestStartOrderActiveSideFirst is the -dial regression: the dialing
// (active) side boots first, its initial dial fails — which must NOT be
// fatal — and the backoff loop connects once the passive side appears.
func TestStartOrderActiveSideFirst(t *testing.T) {
	addrA := reserveAddr(t)

	// B dials A, but A is not up yet.
	b := NewNode(NodeConfig{
		ID:      "B",
		Listen:  "127.0.0.1:0",
		Peers:   map[message.NodeID]string{"A": addrA},
		NextHop: map[message.NodeID]message.NodeID{"A": "A"},
		Overlay: fastOverlay(),
	})
	if err := b.Start(); err != nil {
		t.Fatalf("active-side-first Start must not fail on a dead peer: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })

	// Give the first dial time to fail, then boot the passive side.
	time.Sleep(50 * time.Millisecond)
	a := NewNode(NodeConfig{
		ID:      "A",
		Listen:  addrA,
		Peers:   map[message.NodeID]string{"B": ""},
		NextHop: map[message.NodeID]message.NodeID{"B": "B"},
		Overlay: fastOverlay(),
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	waitFor(t, func() bool {
		return b.LinkStates()["A"] == overlay.StateEstablished &&
			a.LinkStates()["B"] == overlay.StateEstablished
	}, "link establishment after late passive boot")

	// Traffic flows end to end: subscribe at B, publish at A.
	var mu sync.Mutex
	got := 0
	sub := NewRemoteClient("sub", func(message.Notification, []message.SubID) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	if err := sub.Connect(b.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Disconnect() }()
	f := filter.New(filter.Eq("k", message.Int(1)))
	s := proto.Subscription{ID: "sub/s1", Filter: f}
	_ = sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub", Sub: &s})
	waitFor(t, func() bool {
		n := 0
		a.Inspect(func(br *broker.Broker) { n = br.Router().Table().Len() })
		return n >= 1
	}, "subscription at the late-started broker")

	pub := NewRemoteClient("pub", nil)
	if err := pub.Connect(a.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Disconnect() }()
	n := message.NewNotification(map[string]message.Value{"k": message.Int(1)})
	n.ID = message.NotificationID{Publisher: "pub", Seq: 1}
	_ = pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n})
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return got == 1 }, "delivery across the healed link")
}

// TestSubscribeBeforeLinkEstablishedReplays: a subscription installed
// while the overlay link is still down must reach the peer through the
// sync handshake's install replay.
func TestSubscribeBeforeLinkEstablishedReplays(t *testing.T) {
	addrA := reserveAddr(t)
	b := NewNode(NodeConfig{
		ID:      "B",
		Listen:  "127.0.0.1:0",
		Peers:   map[message.NodeID]string{"A": addrA},
		NextHop: map[message.NodeID]message.NodeID{"A": "A"},
		Overlay: fastOverlay(),
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	// Subscribe at B while A is down: the forward to A queues.
	sub := NewRemoteClient("sub", nil)
	if err := sub.Connect(b.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Disconnect() }()
	f := filter.New(filter.Eq("k", message.Int(2)))
	s := proto.Subscription{ID: "sub/s1", Filter: f}
	_ = sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub", Sub: &s})
	waitFor(t, func() bool {
		n := 0
		b.Inspect(func(br *broker.Broker) { n = br.Router().Table().Len() })
		return n >= 1
	}, "local install at B")

	a := NewNode(NodeConfig{
		ID:      "A",
		Listen:  addrA,
		Peers:   map[message.NodeID]string{"B": ""},
		NextHop: map[message.NodeID]message.NodeID{"B": "B"},
		Overlay: fastOverlay(),
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	waitFor(t, func() bool {
		n := 0
		a.Inspect(func(br *broker.Broker) { n = br.Router().Table().Len() })
		return n >= 1
	}, "install replay to the late broker")
}

// middleNode boots the middle broker of the A-B-C line (both edges
// passive: A and C dial B, so a restarted B is redialed by its
// neighbors). A WAL on dir makes it the ISSUE's restarted-on-the-same-
// WAL-dir broker; its mobility manager recovers durable sessions.
func middleNode(t *testing.T, addrB, dir string) *Node {
	t.Helper()
	st, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(NodeConfig{
		ID:      "B",
		Listen:  addrB,
		Peers:   map[message.NodeID]string{"A": "", "C": ""},
		NextHop: map[message.NodeID]message.NodeID{"A": "A", "C": "C"},
		Overlay: fastOverlay(),
	})
	mgr := mobility.New(node.Broker(), mobility.ModeTransparent, mobility.WithStore(st))
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	node.Inspect(func(*broker.Broker) { mgr.Recover() })
	t.Cleanup(func() {
		_ = node.Close()
		_ = st.Close()
	})
	return node
}

// TestMiddleBrokerRestartReconverges is the acceptance scenario's live
// half: kill the middle broker of a 3-broker line and restart it on the
// same WAL dir and address — without touching its neighbors. Their
// overlay managers redial, the sync handshake replays both sides'
// installs into the fresh broker, and delivery across the line resumes.
func TestMiddleBrokerRestartReconverges(t *testing.T) {
	addrB := reserveAddr(t)
	dir := t.TempDir()

	b1 := middleNode(t, addrB, dir)

	edge := func(id, far message.NodeID) *Node {
		node := NewNode(NodeConfig{
			ID:      id,
			Listen:  "127.0.0.1:0",
			Peers:   map[message.NodeID]string{"B": addrB},
			NextHop: map[message.NodeID]message.NodeID{"B": "B", far: "B"},
			Overlay: fastOverlay(),
		})
		mobility.New(node.Broker(), mobility.ModeTransparent)
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		return node
	}
	a := edge("A", "C")
	c := edge("C", "A")

	waitFor(t, func() bool {
		return a.LinkStates()["B"] == overlay.StateEstablished &&
			c.LinkStates()["B"] == overlay.StateEstablished
	}, "initial line establishment")

	// Subscriber at A, publisher at C.
	var mu sync.Mutex
	seen := map[uint64]bool{}
	sub := NewRemoteClient("sub", func(n message.Notification, _ []message.SubID) {
		mu.Lock()
		seen[n.ID.Seq] = true
		mu.Unlock()
	})
	if err := sub.Connect(a.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Disconnect() }()
	f := filter.New(filter.Eq("k", message.Int(3)))
	s := proto.Subscription{ID: "sub/s1", Filter: f}
	_ = sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub", Sub: &s})
	waitFor(t, func() bool {
		n := 0
		c.Inspect(func(br *broker.Broker) { n = br.Router().Table().Len() })
		return n >= 1
	}, "subscription across the line")

	pub := NewRemoteClient("pub", nil)
	if err := pub.Connect(c.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Disconnect() }()
	publish := func(seq uint64) {
		n := message.NewNotification(map[string]message.Value{"k": message.Int(3)})
		n.ID = message.NotificationID{Publisher: "pub", Seq: seq}
		_ = pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n})
	}
	publish(1)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return seen[1] }, "pre-restart delivery")

	// Kill the middle broker. Its neighbors stay up; their links degrade.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return a.LinkStates()["B"] != overlay.StateEstablished &&
			c.LinkStates()["B"] != overlay.StateEstablished
	}, "neighbor links to degrade")

	// Publishes while B is down queue at C's link manager.
	publish(2)
	publish(3)

	// Restart B on the same WAL dir and address; neighbors redial it and
	// replay installs — no neighbor restarts, no client re-subscription.
	b2 := middleNode(t, addrB, dir)
	waitFor(t, func() bool {
		return a.LinkStates()["B"] == overlay.StateEstablished &&
			c.LinkStates()["B"] == overlay.StateEstablished
	}, "line re-establishment after restart")
	waitFor(t, func() bool {
		n := 0
		b2.Inspect(func(br *broker.Broker) { n = br.Router().Table().Len() })
		return n >= 1
	}, "routing reconvergence at the restarted broker")

	publish(4)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[2] && seen[3] && seen[4]
	}, "queued and post-restart deliveries")
	mu.Lock()
	if len(seen) != 4 {
		t.Errorf("seen %d distinct notifications, want 4: %v", len(seen), seen)
	}
	mu.Unlock()
}

// TestLinkTransitionsSurviveABusyLoop: the overlay hands link transitions
// to the event loop without blocking and without dropping any, so a loop
// held up for a long time (here by Inspect; in production by a
// Block-policy client's exhausted window) still passes every transition to
// the chain's LinkObserver stages, in order, once it runs again.
func TestLinkTransitionsSurviveABusyLoop(t *testing.T) {
	rec := &linkLog{}
	n := NewNode(NodeConfig{ID: "A", Listen: "127.0.0.1:0", Middleware: []broker.Middleware{rec}})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	held, release := make(chan struct{}), make(chan struct{})
	go n.Inspect(func(*broker.Broker) { close(held); <-release })
	<-held
	// Passive links and no dials: each peer is exactly two transitions,
	// closed → connecting and connecting → closed.
	const peers = 300
	for i := 0; i < peers; i++ {
		p := message.NodeID(fmt.Sprintf("p%03d", i))
		n.AddLink(p, "", false)
		n.RemoveLink(p)
	}
	close(release)

	var got []overlay.Event
	waitFor(t, func() bool {
		n.Inspect(func(*broker.Broker) { got = append(got[:0], rec.events...) })
		return len(got) >= 2*peers
	}, "every link transition at the chain stage")
	if len(got) != 2*peers {
		t.Fatalf("the stage saw %d transitions, want %d", len(got), 2*peers)
	}
	for i, ev := range got {
		peer, to := message.NodeID(fmt.Sprintf("p%03d", i/2)), overlay.StateConnecting
		if i%2 == 1 {
			to = overlay.StateClosed
		}
		if ev.Peer != peer || ev.To != to {
			t.Fatalf("transition %d: %s -> %s on %s, want -> %s on %s", i, ev.From, ev.To, ev.Peer, to, peer)
		}
	}
}

// linkLog is a chain stage recording its broker's link transitions.
type linkLog struct {
	broker.PassMiddleware
	events []overlay.Event
}

func (l *linkLog) OnLinkChange(_ *broker.Broker, ev overlay.Event) {
	l.events = append(l.events, ev)
}
