package core

import (
	"fmt"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// sent records what a broker handed to its transport.
type sent struct {
	to message.NodeID
	m  proto.Message
}

// newIndexedReplicator builds a lone border broker "B" whose movement-graph
// neighbours are N1 and N2, with a replicator recording its transport.
func newIndexedReplicator(t *testing.T, preSubscribe bool) (*Replicator, *[]sent) {
	t.Helper()
	var out []sent
	record := func(to message.NodeID, m proto.Message) { out = append(out, sent{to, m}) }
	now := time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)
	b := broker.New(broker.Config{ID: "B", Send: record, SendDirect: record, Now: func() time.Time { return now }})
	r := New(Config{
		Broker:       b,
		NLB:          func(message.NodeID) []message.NodeID { return []message.NodeID{"N1", "N2"} },
		Locations:    location.Regions([]message.NodeID{"B", "N1", "N2"}),
		PreSubscribe: preSubscribe,
	})
	return r, &out
}

// checkPortIndex asserts that byPort indexes exactly the resident virtual
// clients, under the port names vcPort derives.
func checkPortIndex(t *testing.T, step string, r *Replicator) {
	t.Helper()
	if len(r.byPort) != len(r.vcs) {
		t.Fatalf("%s: port index holds %d entries, %d virtual clients resident", step, len(r.byPort), len(r.vcs))
	}
	for c, vc := range r.vcs {
		if vc.port != r.vcPort(c) || r.byPort[vc.port] != vc {
			t.Fatalf("%s: %s's virtual client is not indexed under %s", step, c, r.vcPort(c))
		}
	}
}

// checkDeliveries hands one notification to every virtual client's port:
// an active one forwards it to its client, an inactive one buffers it.
func checkDeliveries(t *testing.T, step string, r *Replicator, out *[]sent) {
	t.Helper()
	n := message.NewNotification(map[string]message.Value{"service": message.String("menu")})
	for c, vc := range r.vcs {
		buffered, sends := vc.buf.Len(), len(*out)
		r.OnDeliver(r.b, vc.port, &n, nil, func() { t.Fatalf("%s: delivery to %s's port fell through", step, c) })
		if vc.active {
			if len(*out) != sends+1 {
				t.Fatalf("%s: delivery to active %s sent %d messages", step, c, len(*out)-sends)
			}
			if s := (*out)[sends]; s.to != c || s.m.Kind != proto.KDeliver || s.m.Client != c {
				t.Fatalf("%s: delivery to active %s went to %s as %v", step, c, s.to, s.m)
			}
		} else if vc.buf.Len() != buffered+1 || len(*out) != sends {
			t.Fatalf("%s: delivery to inactive %s buffered %d, sent %d", step, c, vc.buf.Len()-buffered, len(*out)-sends)
		}
	}
}

func TestReplicatorPortIndex(t *testing.T) {
	menu := filter.AtLocation(filter.Eq("service", message.String("menu")))
	sub := func(id message.SubID) *proto.Subscription { return &proto.Subscription{ID: id, Filter: menu} }
	pass := func() {}

	r, out := newIndexedReplicator(t, true)
	tally := &broker.MechanismTally{}
	r.b.UseMiddleware(tally)
	steps := []struct {
		name string
		do   func()
	}{
		{"create (local location-dependent subscribe)", func() {
			r.b.AttachPort("c1")
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#1")}, pass)
		}},
		{"create (replica from a neighbour)", func() {
			r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaCreate, Client: "c2", Origin: "N1",
				Subs: []proto.Subscription{*sub("c2#1")}}, pass)
		}},
		{"create (replica subscription)", func() {
			r.OnMessage(r.b, "N2", proto.Message{Kind: proto.KReplicaSub, Client: "c3", Origin: "N2", Sub: sub("c3#1")}, pass)
		}},
		{"activate (warm replica)", func() {
			r.OnMessage(r.b, "c2", proto.Message{Kind: proto.KConnect, Client: "c2", Origin: "N1"}, pass)
		}},
		{"deactivate", func() {
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KDisconnect, Client: "c1"}, pass)
		}},
		{"exception mode (pop-up without a replica)", func() {
			r.OnMessage(r.b, "c4", proto.Message{Kind: proto.KConnect, Client: "c4", Origin: "far",
				Subs: []proto.Subscription{*sub("c4#1")}}, pass)
		}},
		{"KReplicaDelete", func() {
			r.OnMessage(r.b, "N2", proto.Message{Kind: proto.KReplicaDelete, Client: "c3", Origin: "N2"}, pass)
		}},
		{"Remove", func() { r.Remove("c2") }},
	}
	for _, s := range steps {
		s.do()
		checkPortIndex(t, s.name, r)
		checkDeliveries(t, s.name, r, out)
	}
	if len(r.vcs) != 2 || r.ReplicaActive("c1") || !r.ReplicaActive("c4") {
		t.Fatalf("left %d virtual clients, c1 active %v, c4 active %v; want c1 buffering and c4 active",
			len(r.vcs), r.ReplicaActive("c1"), r.ReplicaActive("c4"))
	}
	for ev, want := range map[broker.Mechanism]int{
		broker.CoreReplicasCreated: 4, broker.CoreReplicasDeleted: 2,
		broker.CoreActivations: 1, broker.CoreExceptionActivations: 1,
	} {
		if got := tally.At("B", ev); got != want {
			t.Fatalf("%s = %d, want %d: the steps did not take the paths they name", ev, got, want)
		}
	}

	// The reactive baseline drops the virtual client on disconnect.
	rr, rout := newIndexedReplicator(t, false)
	rr.b.AttachPort("c1")
	rr.OnMessage(rr.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#1")}, pass)
	checkPortIndex(t, "reactive subscribe", rr)
	checkDeliveries(t, "reactive subscribe", rr, rout)
	rr.OnMessage(rr.b, "c1", proto.Message{Kind: proto.KDisconnect, Client: "c1"}, pass)
	checkPortIndex(t, "reactive drop", rr)
	if len(rr.vcs) != 0 {
		t.Fatalf("reactive baseline kept %d virtual clients after disconnect", len(rr.vcs))
	}
}

// TestReplicatorPlainPortDeliveryAllocs: with 50 virtual clients resident,
// a delivery to an ordinary client port is one index miss and a call to
// next — no allocation.
func TestReplicatorPlainPortDeliveryAllocs(t *testing.T) {
	r, _ := newIndexedReplicator(t, true)
	menu := filter.AtLocation(filter.Eq("service", message.String("menu")))
	for i := 0; i < 50; i++ {
		c := message.NodeID(fmt.Sprintf("c%d", i))
		r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaCreate, Client: c, Origin: "N1",
			Subs: []proto.Subscription{{ID: message.SubID(c) + "#1", Filter: menu}}}, func() {})
	}
	checkPortIndex(t, "50 replicas", r)
	n := message.NewNotification(map[string]message.Value{"service": message.String("menu")})
	passed := 0
	next := func() { passed++ }
	allocs := testing.AllocsPerRun(100, func() { r.OnDeliver(r.b, "plain-client", &n, nil, next) })
	if allocs != 0 {
		t.Errorf("delivery to a plain port allocates %.1f times, want 0", allocs)
	}
	if passed == 0 {
		t.Error("delivery to a plain port did not reach next")
	}
}
