package wire

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// startLine brings up a live 2-broker overlay on loopback and returns the
// nodes. The caller must Close them.
func startLine(t *testing.T) (*Node, *Node) {
	t.Helper()
	a := NewNode(NodeConfig{
		ID:      "A",
		Listen:  "127.0.0.1:0",
		Peers:   map[message.NodeID]string{"B": ""}, // B dials us
		NextHop: map[message.NodeID]message.NodeID{"B": "B"},
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	b := NewNode(NodeConfig{
		ID:      "B",
		Listen:  "127.0.0.1:0",
		Peers:   map[message.NodeID]string{"A": a.Addr()},
		NextHop: map[message.NodeID]message.NodeID{"A": "A"},
	})
	if err := b.Start(); err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = b.Close()
		_ = a.Close()
	})
	return a, b
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLiveEndToEndPubSub(t *testing.T) {
	a, b := startLine(t)

	var mu sync.Mutex
	var got []message.Notification
	sub := NewRemoteClient("sub", func(n message.Notification, _ []message.SubID) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})
	if err := sub.Connect(b.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Disconnect() }()
	f := filter.New(filter.Eq("k", message.Int(7)))
	subscription := proto.Subscription{ID: "sub/s1", Filter: f}
	if err := sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub", Sub: &subscription}); err != nil {
		t.Fatal(err)
	}
	// Wait for the subscription to reach A.
	waitFor(t, func() bool {
		n := 0
		a.Inspect(func(b *broker.Broker) { n = b.Router().Table().Len() })
		return n >= 1
	}, "subscription propagation")

	pub := NewRemoteClient("pub", nil)
	if err := pub.Connect(a.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Disconnect() }()
	n := message.NewNotification(map[string]message.Value{"k": message.Int(7)})
	n.ID = message.NotificationID{Publisher: "pub", Seq: 1}
	if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}); err != nil {
		t.Fatal(err)
	}
	miss := message.NewNotification(map[string]message.Value{"k": message.Int(8)})
	miss.ID = message.NotificationID{Publisher: "pub", Seq: 2}
	if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &miss}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	}, "delivery across TCP")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].ID.Seq != 1 {
		t.Errorf("got %v", got)
	}
}

func TestLiveHandshakeIdentity(t *testing.T) {
	a, _ := startLine(t)
	c, err := DialLink("tester", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Peer() != "A" {
		t.Errorf("peer = %s, want A", c.Peer())
	}
}

func TestLiveRoundTripAllPayloads(t *testing.T) {
	// Exercise the codec with every payload field populated.
	a, b := startLine(t)
	_ = a

	done := make(chan proto.Message, 1)
	cl := NewRemoteClient("probe", nil)
	if err := cl.Connect(b.Addr(), "prevB", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Disconnect() }()

	n := message.NewNotification(map[string]message.Value{
		"s": message.String("x"), "i": message.Int(1),
		"f": message.Float(2.5), "b": message.Bool(true),
	})
	n.ID = message.NotificationID{Publisher: "probe", Seq: 9}
	f := filter.AtLocation(filter.Eq("service", message.String("menu")))
	m := proto.Message{
		Kind:   proto.KRelocProfile,
		Client: "probe",
		Origin: "B",
		Notes:  []message.Notification{n},
		Subs:   []proto.Subscription{{ID: "probe/s1", Filter: f}},
		Watermarks: map[message.NodeID]uint64{
			"pub": 9,
		},
		Hops: 2,
	}
	// Round-trip through a raw link pair rather than the broker.
	ln, err := DialLink("sender", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	_ = done
	// Encode/decode through the binary codec to verify fidelity.
	back := roundTrip(t, m)
	if back.Kind != m.Kind || back.Client != m.Client || len(back.Notes) != 1 ||
		len(back.Subs) != 1 || back.Watermarks["pub"] != 9 {
		t.Errorf("round trip mangled message: %+v", back)
	}
	if !back.Notes[0].Equal(n) || back.Notes[0].ID != n.ID {
		t.Errorf("notification mangled: %v", back.Notes[0])
	}
	if !back.Subs[0].Filter.LocationDependent() {
		t.Error("filter lost its myloc marker over the wire")
	}
}

// pipePair runs the full identification handshake over an in-memory pipe.
func pipePair(t *testing.T) (sender, receiver *Conn) {
	t.Helper()
	p1, p2 := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := handshakeLink("a", p1)
		ch <- res{c, err}
	}()
	receiver, err := acceptLink("b", p2)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	sender = r.c
	t.Cleanup(func() { _ = sender.Close(); _ = receiver.Close() })
	if sender.Peer() != "b" || receiver.Peer() != "a" {
		t.Fatalf("handshake identities wrong: %s / %s", sender.Peer(), receiver.Peer())
	}
	if sender.ProtocolVersion() != codec.Version || receiver.ProtocolVersion() != codec.Version {
		t.Fatalf("negotiated version = %d/%d, want %d",
			sender.ProtocolVersion(), receiver.ProtocolVersion(), codec.Version)
	}
	return sender, receiver
}

func roundTrip(t *testing.T, m proto.Message) proto.Message {
	t.Helper()
	sender, receiver := pipePair(t)
	if err := sender.Send(m); err != nil {
		t.Fatal(err)
	}
	var out proto.Message
	if err := receiver.dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoalescedWrites verifies the flush coalescing path end to end: a
// burst of sends issued while the flusher cannot run must arrive intact
// and in order on the peer.
func TestCoalescedWrites(t *testing.T) {
	sender, receiver := pipePair(t)
	const burst = 64
	go func() {
		for i := 0; i < burst; i++ {
			n := message.NewNotification(map[string]message.Value{"i": message.Int(int64(i))})
			n.ID = message.NotificationID{Publisher: "a", Seq: uint64(i + 1)}
			if err := sender.Send(proto.Message{Kind: proto.KPublish, Note: &n}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < burst; i++ {
		var m proto.Message
		if err := receiver.dec.Decode(&m); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.Note == nil || m.Note.ID.Seq != uint64(i+1) {
			t.Fatalf("message %d out of order: %+v", i, m)
		}
	}
}

// TestRegisterAfterCloseClosesTheConn: a client link whose handshake
// finishes after Close has swept the node's conns is closed by register,
// not left open with a read pump Close never waits for.
func TestRegisterAfterCloseClosesTheConn(t *testing.T) {
	n := NewNode(NodeConfig{ID: "A", Listen: "127.0.0.1:0"})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	_ = n.Close()
	near, far := net.Pipe()
	defer far.Close()
	bw := bufio.NewWriter(near)
	n.register(newConn("late", near, codec.Version, bw, codec.NewEncoder(bw), codec.NewDecoder(bufio.NewReader(near))))
	_ = far.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := far.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the late conn's far end read %v, want io.EOF: register left the conn open", err)
	}
}
