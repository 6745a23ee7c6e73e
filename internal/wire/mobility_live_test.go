package wire

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/core"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/mobility"
	"rebeca/internal/movement"
	"rebeca/internal/proto"
)

// startMobilityLine brings up a live 3-broker line A-B-C with transparent
// mobility managers and replicators attached — the full stack over TCP.
func startMobilityLine(t *testing.T) map[message.NodeID]*Node {
	t.Helper()
	ids := []message.NodeID{"A", "B", "C"}
	topo := broker.LineTopology(ids)
	hops := topo.NextHops()
	adj := topo.Adjacency()
	g := movement.NewGraph()
	for _, e := range topo.Edges {
		g.AddEdge(e[0], e[1])
	}
	locs := location.Regions(ids)

	nodes := make(map[message.NodeID]*Node, len(ids))
	addrs := make(map[message.NodeID]string, len(ids))
	for _, id := range ids {
		peers := make(map[message.NodeID]string)
		for _, n := range adj[id] {
			if a, ok := addrs[n]; ok {
				peers[n] = a // dial already-started neighbors
			} else {
				peers[n] = "" // they will dial us
			}
		}
		node := NewNode(NodeConfig{
			ID:      id,
			Listen:  "127.0.0.1:0",
			Peers:   peers,
			NextHop: hops[id],
		})
		core.New(core.Config{
			Broker:       node.Broker(),
			NLB:          g.NLB(),
			Locations:    locs,
			PreSubscribe: true,
		})
		mobility.New(node.Broker(), mobility.ModeTransparent)
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		addrs[id] = node.Addr()
		t.Cleanup(func() { _ = node.Close() })
	}
	return nodes
}

// liveClient wraps RemoteClient with the client-side bookkeeping the sim
// client does (epochs, profile, dedup).
type liveClient struct {
	id      message.NodeID
	epoch   uint64
	prev    message.NodeID
	profile []proto.Subscription
	rc      *RemoteClient

	mu   sync.Mutex
	got  map[message.NotificationID]bool
	seqs []uint64
}

func newLiveClient(id message.NodeID) *liveClient {
	lc := &liveClient{id: id, got: make(map[message.NotificationID]bool)}
	lc.rc = NewRemoteClient(id, func(n message.Notification, _ []message.SubID) {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		if lc.got[n.ID] {
			return
		}
		lc.got[n.ID] = true
		lc.seqs = append(lc.seqs, n.ID.Seq)
	})
	return lc
}

func (lc *liveClient) connect(t *testing.T, border message.NodeID, addr string) {
	t.Helper()
	lc.epoch++
	if err := lc.rc.Connect(addr, lc.prev, lc.profile, lc.epoch); err != nil {
		t.Fatal(err)
	}
	lc.prev = border
}

func (lc *liveClient) count() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.got)
}

func TestLiveTransparentRelocation(t *testing.T) {
	nodes := startMobilityLine(t)

	mob := newLiveClient("mob")
	f := filter.New(filter.Eq("stream", message.String("s")))
	mob.profile = []proto.Subscription{{ID: "mob/s1", Filter: f}}
	mob.connect(t, "C", nodes["C"].Addr())
	sub := mob.profile[0]
	_ = mob.rc.Send(proto.Message{Kind: proto.KSubscribe, Client: "mob", Sub: &sub})

	waitFor(t, func() bool {
		n := 0
		nodes["A"].Inspect(func(b *broker.Broker) { n = b.Router().Table().Len() })
		return n >= 1
	}, "subscription at A")

	pub := NewRemoteClient("pub", nil)
	if err := pub.Connect(nodes["A"].Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Disconnect() }()

	// Stream continuously from a goroutine while the client moves.
	const total = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= total; i++ {
			n := message.NewNotification(map[string]message.Value{
				"stream": message.String("s"), "n": message.Int(int64(i)),
			})
			n.ID = message.NotificationID{Publisher: "pub", Seq: uint64(i)}
			_ = pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n})
			time.Sleep(time.Millisecond)
		}
	}()

	// Move C -> B mid-stream.
	time.Sleep(50 * time.Millisecond)
	_ = mob.rc.Disconnect()
	time.Sleep(10 * time.Millisecond)
	mob.connect(t, "B", nodes["B"].Addr())

	<-done
	waitFor(t, func() bool { return mob.count() == total }, fmt.Sprintf("all %d deliveries (have %d)", total, mob.count()))

	// Per-publisher FIFO at the client.
	mob.mu.Lock()
	defer mob.mu.Unlock()
	last := uint64(0)
	for _, s := range mob.seqs {
		if s < last {
			t.Fatalf("FIFO violation: %d after %d", s, last)
		}
		last = s
	}
	_ = mob.rc.Disconnect()
}
