package rebeca

import (
	"sync"
	"testing"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/wire"
)

// stampStage is a publish stage that changes a note the way code that
// treats notifications as immutable does: it replaces the note with a
// stamped copy.
type stampStage struct{ PassMiddleware }

func (stampStage) OnPublish(b *Broker, _ NodeID, n *Notification, next func()) {
	*n = n.Set("stamp", String(string(b.ID())))
	next()
}

// publishForms records, per broker, in which form each KPublish reached
// the chain: encoded (the relay form) or as a Notification.
type publishForms struct {
	PassMiddleware
	mu      sync.Mutex
	encoded map[NodeID]int
	built   map[NodeID]int
}

func (p *publishForms) OnMessage(b *Broker, _ NodeID, m proto.Message, next func()) {
	if m.Kind == proto.KPublish {
		p.mu.Lock()
		if m.RawNote != nil && m.Note == nil {
			p.encoded[b.ID()]++
		} else {
			p.built[b.ID()]++
		}
		p.mu.Unlock()
	}
	next()
}

// TestLivePublishStageStampsRelayedNote: on a live Line(3) with a publish
// stage on B1 alone, B0 and B2 handle the publisher's note as the bytes
// they received, B1 builds it for its stage, and what the stage writes is
// what B1 forwards — the subscriber at B2 sees the stamp.
func TestLivePublishStageStampsRelayedNote(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ids := []NodeID{"B0", "B1", "B2"}
	forms := &publishForms{encoded: map[NodeID]int{}, built: map[NodeID]int{}}
	nodes := make([]*BrokerNode, len(ids))
	for i, id := range ids {
		spec := BrokerSpec{ID: id, Listen: addrs[i], Edges: Line(3).Edges()}
		if i > 0 {
			spec.Dial = map[NodeID]string{ids[i-1]: addrs[i-1]}
		}
		opts := []Option{WithMiddleware(forms)}
		if id == "B1" {
			opts = append(opts, WithMiddleware(stampStage{}))
		}
		n, err := StartBroker(spec, opts...)
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		defer n.Close(0)
		nodes[i] = n
	}
	waitReady(t, nodes...)

	got := make(chan Notification, 1)
	sub := wire.NewRemoteClient("sub", func(n Notification, _ []SubID) {
		select {
		case got <- n:
		default:
		}
	})
	if err := sub.Connect(addrs[2], "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect()
	if err := sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub",
		Sub: &proto.Subscription{ID: "sub/s1", Filter: NewFilter(Exists("n"))}}); err != nil {
		t.Fatal(err)
	}
	pub := wire.NewRemoteClient("pub", nil)
	if err := pub.Connect(addrs[0], "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer pub.Disconnect()
	// The subscription is still travelling B2 → B1 → B0: publish until one
	// note makes it all the way.
	var seq uint64
	var n Notification
	eventually(t, 3*time.Second, "delivery B0 → B2", func() bool {
		seq++
		note := message.NewNotification(map[string]Value{"n": Int(int64(seq))})
		note.ID = NotificationID{Publisher: "pub", Seq: seq}
		if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &note}); err != nil {
			t.Fatal(err)
		}
		select {
		case n = <-got:
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})
	if v, ok := n.Get("stamp"); !ok || v.Str() != "B1" {
		t.Errorf("delivered %s: stamp = %v (%v), want B1", n, v, ok)
	}
	if v, ok := n.Get("n"); !ok || v.IntVal() < 1 {
		t.Errorf("delivered %s lost its own attribute", n)
	}
	forms.mu.Lock()
	defer forms.mu.Unlock()
	for _, id := range ids {
		if forms.encoded[id] == 0 || forms.built[id] != 0 {
			t.Errorf("%s: %d publishes arrived encoded, %d as Notifications; want all encoded", id, forms.encoded[id], forms.built[id])
		}
	}
}
