package core

import (
	"fmt"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
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

// newSharedReplicator builds a lone border broker "B" whose movement-graph
// neighbours are N1 and N2, with a replicator recording its transport.
// bufs, when non-nil, builds the virtual clients' buffers.
func newSharedReplicator(t testing.TB, preSubscribe bool, bufs buffer.Factory) (*Replicator, *[]sent) {
	t.Helper()
	var out []sent
	record := func(to message.NodeID, m proto.Message) { out = append(out, sent{to, m}) }
	now := time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)
	b := broker.New(broker.Config{ID: "B", Send: record, SendDirect: record, Now: func() time.Time { return now }})
	r := New(Config{
		Broker:        b,
		NLB:           func(message.NodeID) []message.NodeID { return []message.NodeID{"N1", "N2"} },
		Locations:     location.Regions([]message.NodeID{"B", "N1", "N2"}),
		BufferFactory: bufs,
		PreSubscribe:  preSubscribe,
	})
	return r, &out
}

// checkSharedEntries asserts the shared-entry bookkeeping against the
// virtual clients' own records: every held SubID names the entry of its
// resolved filter, each entry's holders are exactly the (virtual client,
// SubID) pairs naming it, no entry is left without holders, and the
// broker's table holds one entry per live key, on the replicator's port.
func checkSharedEntries(t *testing.T, step string, r *Replicator) {
	t.Helper()
	named := make(map[message.SubID]map[*virtualClient]int)
	for c, vc := range r.vcs {
		if len(vc.keys) != len(vc.subs) {
			t.Fatalf("%s: %s holds %d entries for %d subscriptions", step, c, len(vc.keys), len(vc.subs))
		}
		for id, f := range vc.subs {
			key, ok := vc.keys[id]
			if want := message.SubID("vc:" + r.resolve(f).Key() + "@B"); !ok || key != want {
				t.Fatalf("%s: %s's %s names entry %q, want %q", step, c, id, key, want)
			}
			if named[key] == nil {
				named[key] = make(map[*virtualClient]int)
			}
			named[key][vc]++
		}
	}
	if len(r.entries) != len(named) {
		t.Fatalf("%s: %d shared entries, the virtual clients name %d", step, len(r.entries), len(named))
	}
	for key, holders := range r.entries {
		if len(holders) == 0 {
			t.Fatalf("%s: entry %q has no holders", step, key)
		}
		held := make(map[*virtualClient]int)
		for _, vc := range holders {
			held[vc]++
		}
		if len(held) != len(named[key]) {
			t.Fatalf("%s: entry %q has %d holders, %d virtual clients name it", step, key, len(held), len(named[key]))
		}
		for vc, n := range named[key] {
			if held[vc] != n {
				t.Fatalf("%s: entry %q holds %s %d times, its key map names it %d times", step, key, vc.client, held[vc], n)
			}
		}
	}
	onPort := 0
	for _, e := range r.b.Router().Table().Entries() {
		if e.Link != r.port {
			t.Fatalf("%s: table entry %q sits on %s, not on %s", step, e.Sub.ID, e.Link, r.port)
		}
		if _, ok := r.entries[e.Sub.ID]; !ok || e.Sub.ID != message.SubID("vc:"+e.Sub.Filter.Key()+"@B") {
			t.Fatalf("%s: table entry %q (%s) is no live key", step, e.Sub.ID, e.Sub.Filter.Key())
		}
		onPort++
	}
	if onPort != len(r.entries) {
		t.Fatalf("%s: table holds %d entries for %d live keys", step, onPort, len(r.entries))
	}
}

// checkFanOut publishes one menu notification at B's region through the
// broker: every virtual client with a subscription matching it is reached
// exactly once — an active one sends one KDeliver, an inactive one buffers
// once — however many of its entries matched, and no other is touched.
func checkFanOut(t *testing.T, step string, r *Replicator, out *[]sent) {
	t.Helper()
	n := location.Stamp(message.NewNotification(map[string]message.Value{"service": message.String("menu")}), "region-B")
	buffered := make(map[message.NodeID]int, len(r.vcs))
	for c, vc := range r.vcs {
		buffered[c] = vc.buf.Len()
	}
	sends := len(*out)
	r.b.AttachPort("pub")
	r.b.HandleMessage("pub", proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n})
	delivered := make(map[message.NodeID]int)
	for _, s := range (*out)[sends:] {
		if s.m.Kind != proto.KDeliver || s.m.Client != s.to {
			t.Fatalf("%s: the publish sent %v to %s", step, s.m.Kind, s.to)
		}
		delivered[s.to]++
	}
	reached := 0
	for c, vc := range r.vcs {
		want := 0
		for _, f := range vc.subs {
			if r.resolve(f).Matches(n) {
				want = 1
			}
		}
		reached += want
		got, buf := delivered[c], vc.buf.Len()-buffered[c]
		if vc.active && (got != want || buf != 0) || !vc.active && (got != 0 || buf != want) {
			t.Fatalf("%s: %s (active %v) got %d deliveries and buffered %d, want %d", step, c, vc.active, got, buf, want)
		}
	}
	if len(delivered) > reached {
		t.Fatalf("%s: deliveries reached %d clients, %d virtual clients match", step, len(delivered), reached)
	}
}

func TestReplicatorSharedEntries(t *testing.T) {
	menu := filter.AtLocation(filter.Eq("service", message.String("menu")))
	news := filter.AtLocation(filter.Eq("service", message.String("news")))
	here := filter.AtLocation()
	sub := func(id message.SubID, f filter.Filter) *proto.Subscription {
		return &proto.Subscription{ID: id, Filter: f}
	}
	pass := func() {}

	r, out := newSharedReplicator(t, true, nil)
	tally := &broker.MechanismTally{}
	r.b.UseMiddleware(tally)
	steps := []struct {
		name string
		do   func()
	}{
		{"subscribe (local location-dependent)", func() {
			r.b.AttachPort("c1")
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#1", menu)}, pass)
		}},
		{"second client on the same template (replica from a neighbour)", func() {
			r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaCreate, Client: "c2", Origin: "N1",
				Subs: []proto.Subscription{*sub("c2#1", menu)}}, pass)
		}},
		{"re-issue with a new filter", func() {
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#1", news)}, pass)
		}},
		{"second subscription on an existing entry", func() {
			r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaSub, Client: "c2", Origin: "N1", Sub: sub("c2#2", here)}, pass)
		}},
		{"re-issue at a replica", func() {
			r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaSub, Client: "c2", Origin: "N1", Sub: sub("c2#1", news)}, pass)
			if got := r.vcs["c2"].subs["c2#1"]; got.Key() != news.Key() {
				t.Fatalf("a replica kept %s after its client re-issued c2#1 as %s", got.Key(), news.Key())
			}
			r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaSub, Client: "c2", Origin: "N1", Sub: sub("c2#1", menu)}, pass)
		}},
		{"re-issue back, beside a second matching subscription", func() {
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#2", here)}, pass)
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#1", menu)}, pass)
		}},
		{"one filter under two SubIDs", func() {
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#3", menu)}, pass)
		}},
		{"replica subscription (new client)", func() {
			r.OnMessage(r.b, "N2", proto.Message{Kind: proto.KReplicaSub, Client: "c3", Origin: "N2", Sub: sub("c3#1", menu)}, pass)
		}},
		{"activate (warm replica)", func() {
			r.OnMessage(r.b, "c2", proto.Message{Kind: proto.KConnect, Client: "c2", Origin: "N1"}, pass)
		}},
		{"disconnect", func() {
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KDisconnect, Client: "c1"}, pass)
		}},
		{"unsubscribe one of two SubIDs on one entry", func() {
			r.OnMessage(r.b, "c1", proto.Message{Kind: proto.KUnsubscribe, Sub: sub("c1#3", menu)}, pass)
		}},
		{"exception mode (pop-up without a replica)", func() {
			r.OnMessage(r.b, "c4", proto.Message{Kind: proto.KConnect, Client: "c4", Origin: "far",
				Subs: []proto.Subscription{*sub("c4#1", news)}}, pass)
		}},
		{"replica delete", func() {
			r.OnMessage(r.b, "N2", proto.Message{Kind: proto.KReplicaDelete, Client: "c3", Origin: "N2"}, pass)
		}},
		{"Remove", func() { r.Remove("c2") }},
	}
	for _, s := range steps {
		s.do()
		checkSharedEntries(t, s.name, r)
		checkFanOut(t, s.name, r, out)
	}
	if len(r.vcs) != 2 || r.ReplicaActive("c1") || !r.ReplicaActive("c4") {
		t.Fatalf("left %d virtual clients, c1 active %v, c4 active %v; want c1 buffering and c4 active",
			len(r.vcs), r.ReplicaActive("c1"), r.ReplicaActive("c4"))
	}
	if len(r.entries) != 3 {
		t.Fatalf("left %d shared entries, want 3 (c1's menu and here, c4's news)", len(r.entries))
	}
	for ev, want := range map[broker.Mechanism]int{
		broker.CoreReplicasCreated: 4, broker.CoreReplicasDeleted: 2,
		broker.CoreActivations: 1, broker.CoreExceptionActivations: 1,
	} {
		if got := tally.At("B", ev); got != want {
			t.Fatalf("%s = %d, want %d: the steps did not take the paths they name", ev, got, want)
		}
	}
	r.Remove("c1")
	r.Remove("c4")
	checkSharedEntries(t, "Remove the rest", r)
	if len(r.entries) != 0 || r.b.Router().Table().Len() != 0 {
		t.Fatalf("removing every client left %d shared entries and %d table entries", len(r.entries), r.b.Router().Table().Len())
	}

	// The reactive baseline drops the virtual client, and its entry, on
	// disconnect.
	rr, rout := newSharedReplicator(t, false, nil)
	rr.b.AttachPort("c1")
	rr.OnMessage(rr.b, "c1", proto.Message{Kind: proto.KSubscribe, Sub: sub("c1#1", menu)}, pass)
	checkSharedEntries(t, "reactive subscribe", rr)
	checkFanOut(t, "reactive subscribe", rr, rout)
	rr.OnMessage(rr.b, "c1", proto.Message{Kind: proto.KDisconnect, Client: "c1"}, pass)
	checkSharedEntries(t, "reactive drop", rr)
	if len(rr.vcs) != 0 || len(rr.entries) != 0 {
		t.Fatalf("reactive baseline kept %d virtual clients and %d entries after disconnect", len(rr.vcs), len(rr.entries))
	}
}

// replicas creates n inactive virtual clients at r, each holding the
// given filters under SubIDs #1, #2, ….
func replicas(r *Replicator, n int, fs ...filter.Filter) {
	for i := 0; i < n; i++ {
		c := message.NodeID(fmt.Sprintf("c%d", i))
		subs := make([]proto.Subscription, len(fs))
		for j, f := range fs {
			subs[j] = proto.Subscription{ID: message.SubID(fmt.Sprintf("%s#%d", c, j+1)), Filter: f}
		}
		r.OnMessage(r.b, "N1", proto.Message{Kind: proto.KReplicaCreate, Client: c, Origin: "N1", Subs: subs}, func() {})
	}
}

// TestReplicatorFanOutAllocs: a delivery on the replicator's port that
// matched two shared entries, each held by the same 50 buffering virtual
// clients, reaches each once, and the fan-out's bookkeeping allocates
// nothing: a one-slot Window buffers without allocating once warm.
func TestReplicatorFanOutAllocs(t *testing.T) {
	r, _ := newSharedReplicator(t, true, func() buffer.Policy { return buffer.NewWindow(0, 1) })
	menu := filter.AtLocation(filter.Eq("service", message.String("menu")))
	replicas(r, 50, menu, filter.AtLocation())
	if len(r.entries) != 2 {
		t.Fatalf("50 replicas of two templates hold %d entries, want 2", len(r.entries))
	}
	var matched []message.SubID
	for _, e := range r.b.Router().Table().Entries() {
		matched = append(matched, e.Sub.ID)
	}
	n := message.NewNotification(map[string]message.Value{"service": message.String("menu")})
	deliver := func() {
		r.OnDeliver(r.b, r.port, &n, matched, func() { t.Fatal("a delivery on the replicator's port fell through") })
	}
	deliver()
	for c, vc := range r.vcs {
		if vc.buf.Len() != 1 {
			t.Fatalf("%s buffered %d of one delivery matching two of its entries", c, vc.buf.Len())
		}
	}
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Errorf("fan-out to 50 buffering holders allocates %.1f times, want 0", allocs)
	}
}

// TestReplicatorPlainPortDeliveryAllocs: with 50 virtual clients resident,
// a delivery to an ordinary client port is one comparison and a call to
// next — no allocation.
func TestReplicatorPlainPortDeliveryAllocs(t *testing.T) {
	r, _ := newSharedReplicator(t, true, nil)
	replicas(r, 50, filter.AtLocation(filter.Eq("service", message.String("menu"))))
	checkSharedEntries(t, "50 replicas", r)
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
