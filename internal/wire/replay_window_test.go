package wire

import (
	"slices"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/mobility"
	"rebeca/internal/proto"
)

// replayNotes is larger than the window the tests announce, so a replay
// batch cannot go out in one frame.
const (
	replayNotes  = 12
	replayWindow = 2
)

// ghostNode starts a lone broker A with a transparent mobility manager on
// which the client "sub", subscribed to every note with attribute k, left
// a ghost session that buffered replayNotes notes (k = seq = 1, 2, …).
func ghostNode(t *testing.T) *Node {
	t.Helper()
	node := NewNode(NodeConfig{ID: "A", Listen: "127.0.0.1:0"})
	mgr := mobility.New(node.Broker(), mobility.ModeTransparent)
	tally := &broker.MechanismTally{}
	node.Broker().UseMiddleware(tally)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	sub := NewRemoteClient("sub", nil)
	if err := sub.Connect(node.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	s := proto.Subscription{ID: "sub/s1", Filter: filter.New(filter.Exists("k"))}
	if err := sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub", Sub: &s}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		n := 0
		node.Inspect(func(b *broker.Broker) { n = b.Router().Table().Len() })
		return n == 1
	}, "the subscription")
	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	// Publish only once the broker has taken the disconnect: a note it
	// delivered to the closed link before then would be lost, as the
	// client acknowledges no delivery.
	waitFor(t, func() bool {
		st := ""
		node.Inspect(func(*broker.Broker) { st = mgr.SessionState("sub") })
		return st == "ghost"
	}, "the ghost session")

	pub := NewRemoteClient("pub", nil)
	if err := pub.Connect(node.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Disconnect() })
	for i := 1; i <= replayNotes; i++ {
		n := message.NewNotification(map[string]message.Value{"k": message.Int(int64(i))})
		n.ID = message.NotificationID{Publisher: "pub", Seq: uint64(i)}
		if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		n := 0
		node.Inspect(func(*broker.Broker) { n = tally.Total(broker.MobilityBuffered) })
		return n == replayNotes
	}, "the ghost to buffer every note")
	return node
}

func wantSeqs() []uint64 {
	var out []uint64
	for i := uint64(1); i <= replayNotes; i++ {
		out = append(out, i)
	}
	return out
}

// A replay batch larger than the client's credit window goes out in frames
// of at most the window's notes, each sent once credits are back, in
// (publisher, seq) order.
func TestReplayBatchCutAtCreditWindow(t *testing.T) {
	node := ghostNode(t)
	conn, err := DialLink("sub", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(proto.Message{Kind: proto.KConnect, Client: "sub", Origin: "A", Epoch: 2, Credits: replayWindow}); err != nil {
		t.Fatal(err)
	}
	_ = conn.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var seqs []uint64
	frames := 0
	for len(seqs) < replayNotes {
		var m proto.Message
		if err := conn.dec.Decode(&m); err != nil {
			t.Fatalf("after %d notes in %d frames: %v", len(seqs), frames, err)
		}
		if m.Kind != proto.KDeliver {
			continue
		}
		frames++
		if m.Note != nil || len(m.Notes) == 0 || len(m.Notes) > replayWindow {
			t.Fatalf("frame %d carries note %v and %d batched notes, want 1..%d batched", frames, m.Note, len(m.Notes), replayWindow)
		}
		for _, n := range m.Notes {
			seqs = append(seqs, n.ID.Seq)
		}
		// Grant per frame, as a client pump with this window does.
		if err := conn.Send(proto.Message{Kind: proto.KCredit, Client: "sub", Credits: len(m.Notes)}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(seqs, wantSeqs()) {
		t.Errorf("replayed %v, want %v", seqs, wantSeqs())
	}
	if frames < replayNotes/replayWindow {
		t.Errorf("%d frames carried %d notes through a window of %d", frames, replayNotes, replayWindow)
	}
}

// The client side of the same replay: RemoteClient's pump hands each note
// of a batch to the callback in order and returns a credit per note, so a
// batch larger than the window neither hangs nor reorders.
func TestRemoteClientDrainsBatchesThroughSmallWindow(t *testing.T) {
	node := ghostNode(t)
	got := make(chan uint64, replayNotes)
	rc := NewRemoteClient("sub", func(n message.Notification, _ []message.SubID) { got <- n.ID.Seq })
	rc.Window = replayWindow
	if err := rc.Connect(node.Addr(), "A", nil, 2); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Disconnect() }()
	var seqs []uint64
	timeout := time.After(5 * time.Second)
	for len(seqs) < replayNotes {
		select {
		case s := <-got:
			seqs = append(seqs, s)
		case <-timeout:
			t.Fatalf("replay stalled after %v", seqs)
		}
	}
	if !slices.Equal(seqs, wantSeqs()) {
		t.Errorf("replayed %v, want %v", seqs, wantSeqs())
	}
}
