package wire

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
)

// discardConn is a socket that takes every write and goes nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// relayForwardProbe is a transit broker's whole share of a publish: a
// relay-form KPublish, as a broker link decodes it, through HandleMessage on
// a broker holding one remote subscription, encoded into the next link's
// Conn. It returns the operation and the broker, to count what it forwarded.
func relayForwardProbe(tb testing.TB) (func(), *broker.Broker) {
	sock := discardConn{}
	bw := bufio.NewWriter(sock)
	conn := newConn("R", sock, codec.Version, bw, codec.NewEncoder(bw), nil)
	tb.Cleanup(func() { _ = conn.Close() })
	br := broker.New(broker.Config{
		ID: "X", Peers: []message.NodeID{"P", "R"},
		Send: func(_ message.NodeID, m proto.Message) { _ = conn.Send(m) },
	})
	br.HandleMessage("R", proto.Message{Kind: proto.KSubscribe,
		Sub: &proto.Subscription{ID: "far/s1", Filter: filter.New(filter.Exists("k"))}})
	n := message.NewNotification(map[string]message.Value{"k": message.Int(7), "service": message.String("stock")})
	n.ID = message.NotificationID{Publisher: "pub", Seq: 1}
	n.Published = time.Now()
	m, err := codec.DecodeRelayMessage(codec.AppendMessage(nil, &proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}))
	if err != nil || m.RawNote == nil {
		tb.Fatalf("relay form: %v (RawNote %d bytes)", err, len(m.RawNote))
	}
	return func() { br.HandleMessage("P", m) }, br
}

func BenchmarkRelayForward(b *testing.B) {
	forward, br := relayForwardProbe(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward()
	}
	b.StopTimer()
	if got := br.Stats().Forwarded; got < b.N {
		b.Fatalf("forwarded %d of %d", got, b.N)
	}
}

// TestRelayForwardAllocs: a broker that only forwards builds no
// Notification, no map and no string — 0 allocs (BenchmarkRelayForward).
func TestRelayForwardAllocs(t *testing.T) {
	forward, br := relayForwardProbe(t)
	if got := testing.AllocsPerRun(1000, forward); got != 0 {
		t.Errorf("relay forward: %v allocs, want 0", got)
	}
	if got := br.Stats().Forwarded; got < 1000 {
		t.Errorf("forwarded %d of 1001", got)
	}
}

// TestPeerDataFrameTouchesLinkOnce: a data frame on a live broker link
// records the link's liveness once — on the read pump, where a busy event
// loop cannot delay it — and reads the overlay's clock for it once.
func TestPeerDataFrameTouchesLinkOnce(t *testing.T) {
	quiet := overlay.Settings{HeartbeatInterval: time.Hour} // no heartbeat reads the clock meanwhile
	a := NewNode(NodeConfig{ID: "A", Listen: "127.0.0.1:0", Peers: map[message.NodeID]string{"B": ""},
		Overlay: quiet})
	var reads atomic.Int64
	a.ov = a.newOverlay(func() time.Time { reads.Add(1); return time.Now() })
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := NewNode(NodeConfig{ID: "B", Listen: "127.0.0.1:0", Peers: map[message.NodeID]string{"A": a.Addr()},
		Overlay: quiet})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, func() bool {
		return a.LinkStates()["B"] == overlay.StateEstablished && b.LinkStates()["A"] == overlay.StateEstablished
	}, "link A-B established")
	routed := func() (n int) {
		a.Inspect(func(br *broker.Broker) { n = br.Stats().PublishesRouted })
		return n
	}
	const frames = 50
	before, base := routed(), reads.Load()
	b.Inspect(func(br *broker.Broker) {
		for i := 1; i <= frames; i++ {
			n := message.NewNotification(map[string]message.Value{"k": message.Int(int64(i))})
			n.ID = message.NotificationID{Publisher: "pub", Seq: uint64(i)}
			br.Send("A", proto.Message{Kind: proto.KPublish, Note: &n})
		}
	})
	waitFor(t, func() bool { return routed() == before+frames }, "A to route every frame")
	if got := reads.Load() - base; got != frames {
		t.Errorf("%d data frames read the link clock %d times, want once each", frames, got)
	}
}
