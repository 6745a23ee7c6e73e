package broker

import (
	"fmt"
	"testing"
	"time"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
)

// harness wires brokers over an in-memory, synchronous FIFO network: sends
// append to a queue that the test pumps to quiescence. Client ports collect
// their deliveries.
type harness struct {
	t       *testing.T
	brokers map[message.NodeID]*Broker
	inboxes map[message.NodeID][]queued // client deliveries
	queue   []queued
	now     time.Time
}

type queued struct {
	from, to message.NodeID
	m        proto.Message
}

func newHarness(t *testing.T, topo Topology, strategy routing.Strategy) *harness {
	t.Helper()
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology: %v", err)
	}
	h := &harness{
		t:       t,
		brokers: make(map[message.NodeID]*Broker),
		inboxes: make(map[message.NodeID][]queued),
		now:     time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC),
	}
	adj := topo.Adjacency()
	hops := topo.NextHops()
	for _, id := range topo.Nodes() {
		id := id
		h.brokers[id] = New(Config{
			ID:       id,
			Peers:    adj[id],
			Strategy: strategy,
			Send: func(to message.NodeID, m proto.Message) {
				h.queue = append(h.queue, queued{from: id, to: to, m: m})
			},
			Now:     func() time.Time { return h.now },
			NextHop: hops[id],
		})
	}
	return h
}

// pump delivers queued messages until quiescence.
func (h *harness) pump() {
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		if b, ok := h.brokers[q.to]; ok {
			m := q.m
			m.From = q.from
			b.HandleMessage(q.from, m)
			continue
		}
		h.inboxes[q.to] = append(h.inboxes[q.to], q)
	}
}

// connect attaches a client port at a broker.
func (h *harness) connect(c, at message.NodeID) {
	h.brokers[at].HandleMessage(c, proto.Message{Kind: proto.KConnect, Client: c})
	h.pump()
}

// subscribe issues a subscription from a client.
func (h *harness) subscribe(c, at message.NodeID, id string, f filter.Filter) {
	sub := proto.Subscription{ID: message.SubID(id), Filter: f}
	h.brokers[at].HandleMessage(c, proto.Message{Kind: proto.KSubscribe, Sub: &sub})
	h.pump()
}

// publish emits a notification from a client attached at a broker.
func (h *harness) publish(c, at message.NodeID, seq uint64, attrs map[string]message.Value) {
	n := message.NewNotification(attrs)
	n.ID = message.NotificationID{Publisher: c, Seq: seq}
	n.Published = h.now
	h.brokers[at].HandleMessage(c, proto.Message{Kind: proto.KPublish, Note: &n})
	h.pump()
}

// delivered returns the notifications a client received.
func (h *harness) delivered(c message.NodeID) []message.Notification {
	var out []message.Notification
	for _, q := range h.inboxes[c] {
		if q.m.Kind == proto.KDeliver && q.m.Note != nil {
			out = append(out, *q.m.Note)
		}
	}
	return out
}

func lineTopo(n int) Topology {
	ids := make([]message.NodeID, n)
	for i := range ids {
		ids[i] = message.NodeID(string(rune('A' + i)))
	}
	return LineTopology(ids)
}

func attrInt(k string, v int64) map[string]message.Value {
	return map[string]message.Value{k: message.Int(v)}
}

func TestTopologyValidate(t *testing.T) {
	if err := lineTopo(4).Validate(); err != nil {
		t.Errorf("line should validate: %v", err)
	}
	// Brokers elect a spanning tree over whatever graph they are given.
	cyclic := Topology{Edges: [][2]message.NodeID{{"A", "B"}, {"B", "C"}, {"C", "A"}}}
	if err := cyclic.Validate(); err != nil {
		t.Errorf("connected cycle should validate: %v", err)
	}
	disconnected := Topology{Edges: [][2]message.NodeID{{"A", "B"}, {"C", "D"}, {"D", "E"}, {"E", "C"}}}
	if err := disconnected.Validate(); err == nil {
		t.Error("disconnected forest should fail validation")
	}
	if err := (Topology{}).Validate(); err == nil {
		t.Error("empty topology should fail")
	}
}

func TestNextHops(t *testing.T) {
	topo := lineTopo(4) // A-B-C-D
	hops := topo.NextHops()
	if hops["A"]["D"] != "B" {
		t.Errorf("A->D first hop = %s, want B", hops["A"]["D"])
	}
	if hops["D"]["A"] != "C" {
		t.Errorf("D->A first hop = %s, want C", hops["D"]["A"])
	}
	if hops["B"]["A"] != "A" {
		t.Errorf("B->A first hop = %s, want A", hops["B"]["A"])
	}
}

func TestPathLen(t *testing.T) {
	topo := lineTopo(5)
	if got := topo.PathLen("A", "E"); got != 4 {
		t.Errorf("PathLen(A,E) = %d, want 4", got)
	}
	if got := topo.PathLen("C", "C"); got != 0 {
		t.Errorf("PathLen(C,C) = %d, want 0", got)
	}
}

func TestPublishReachesRemoteSubscriber(t *testing.T) {
	h := newHarness(t, lineTopo(4), routing.StrategySimple)
	h.connect("sub1", "D")
	h.subscribe("sub1", "D", "s1", filter.New(filter.Eq("k", message.Int(7))))
	h.connect("pub1", "A")
	h.publish("pub1", "A", 1, attrInt("k", 7))
	h.publish("pub1", "A", 2, attrInt("k", 8)) // must not match

	got := h.delivered("sub1")
	if len(got) != 1 {
		t.Fatalf("delivered %d notifications, want 1", len(got))
	}
	if got[0].ID.Seq != 1 {
		t.Errorf("wrong notification delivered: %v", got[0])
	}
}

func TestSubscriptionPropagatesToAllBrokers(t *testing.T) {
	h := newHarness(t, lineTopo(4), routing.StrategySimple)
	h.connect("c", "A")
	h.subscribe("c", "A", "s1", filter.New(filter.Eq("k", message.Int(1))))
	for id, b := range h.brokers {
		if b.Router().Table().Len() != 1 {
			t.Errorf("broker %s table len = %d, want 1", id, b.Router().Table().Len())
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	h := newHarness(t, lineTopo(3), routing.StrategySimple)
	h.connect("c", "C")
	f := filter.New(filter.Eq("k", message.Int(1)))
	h.subscribe("c", "C", "s1", f)
	h.connect("p", "A")
	h.publish("p", "A", 1, attrInt("k", 1))

	sub := proto.Subscription{ID: "s1", Filter: f}
	h.brokers["C"].HandleMessage("c", proto.Message{Kind: proto.KUnsubscribe, Sub: &sub})
	h.pump()
	h.publish("p", "A", 2, attrInt("k", 1))

	if got := h.delivered("c"); len(got) != 1 {
		t.Fatalf("delivered %d, want 1 (before unsubscribe only)", len(got))
	}
	for id, b := range h.brokers {
		if b.Router().Table().Len() != 0 {
			t.Errorf("broker %s table should be empty after unsubscribe", id)
		}
	}
}

func TestNoEchoToPublisher(t *testing.T) {
	h := newHarness(t, lineTopo(2), routing.StrategySimple)
	h.connect("c", "A")
	h.subscribe("c", "A", "s1", filter.New(filter.Exists("k")))
	h.publish("c", "A", 1, attrInt("k", 1))
	if got := h.delivered("c"); len(got) != 0 {
		t.Errorf("publisher received its own notification back: %v", got)
	}
}

func TestTwoSubscribersBothReceive(t *testing.T) {
	h := newHarness(t, lineTopo(3), routing.StrategySimple)
	h.connect("c1", "A")
	h.connect("c2", "C")
	f := filter.New(filter.Ge("k", message.Int(0)))
	h.subscribe("c1", "A", "s1", f)
	h.subscribe("c2", "C", "s2", f)
	h.connect("p", "B")
	h.publish("p", "B", 1, attrInt("k", 5))
	if len(h.delivered("c1")) != 1 || len(h.delivered("c2")) != 1 {
		t.Errorf("deliveries: c1=%d c2=%d, want 1 each",
			len(h.delivered("c1")), len(h.delivered("c2")))
	}
}

func TestOverlappingSubsDeliverOnce(t *testing.T) {
	h := newHarness(t, lineTopo(2), routing.StrategySimple)
	h.connect("c", "B")
	h.subscribe("c", "B", "s1", filter.New(filter.Ge("k", message.Int(0))))
	h.subscribe("c", "B", "s2", filter.New(filter.Le("k", message.Int(10))))
	h.connect("p", "A")
	h.publish("p", "A", 1, attrInt("k", 5))
	if got := h.delivered("c"); len(got) != 1 {
		t.Errorf("overlapping subscriptions should deliver once, got %d", len(got))
	}
}

func TestCoveringRoutingDeliversSame(t *testing.T) {
	run := func(strategy routing.Strategy) []message.Notification {
		h := newHarness(t, lineTopo(5), strategy)
		h.connect("wide", "E")
		h.subscribe("wide", "E", "w", filter.New(filter.Le("k", message.Int(100))))
		h.connect("narrow", "E")
		h.subscribe("narrow", "E", "n", filter.New(filter.Le("k", message.Int(10))))
		h.connect("p", "A")
		h.publish("p", "A", 1, attrInt("k", 5))
		h.publish("p", "A", 2, attrInt("k", 50))
		return append(h.delivered("wide"), h.delivered("narrow")...)
	}
	simple := run(routing.StrategySimple)
	covering := run(routing.StrategyCovering)
	if len(simple) != len(covering) {
		t.Errorf("covering delivered %d, simple %d", len(covering), len(simple))
	}
}

func TestCoveringReducesTableSize(t *testing.T) {
	mk := func(strategy routing.Strategy) int {
		h := newHarness(t, lineTopo(5), strategy)
		h.connect("wide", "E")
		h.subscribe("wide", "E", "w", filter.New(filter.Le("k", message.Int(100))))
		h.connect("narrow", "E")
		h.subscribe("narrow", "E", "n", filter.New(filter.Le("k", message.Int(10))))
		total := 0
		for _, b := range h.brokers {
			total += b.Router().Table().Len()
		}
		return total
	}
	if simple, covering := mk(routing.StrategySimple), mk(routing.StrategyCovering); covering >= simple {
		t.Errorf("covering tables (%d) should be smaller than simple (%d)", covering, simple)
	}
}

func TestUnicastRouting(t *testing.T) {
	h := newHarness(t, lineTopo(5), routing.StrategySimple)
	var got []proto.Message
	h.brokers["E"].UseMiddleware(&capturePlugin{onHandle: func(from message.NodeID, m proto.Message) bool {
		if m.Kind == proto.KRelocReq {
			got = append(got, m)
			return true
		}
		return false
	}})
	h.brokers["A"].Unicast("E", proto.Message{Kind: proto.KRelocReq, Client: "c", Origin: "A"})
	h.pump()
	if len(got) != 1 {
		t.Fatalf("unicast not delivered, got %d", len(got))
	}
	if got[0].Hops != 3 {
		t.Errorf("hops = %d, want 3 (forwarded by B,C,D)", got[0].Hops)
	}
}

func TestUnicastToSelf(t *testing.T) {
	h := newHarness(t, lineTopo(2), routing.StrategySimple)
	var got int
	h.brokers["A"].UseMiddleware(&capturePlugin{onHandle: func(_ message.NodeID, m proto.Message) bool {
		if m.Kind == proto.KRelocReq {
			got++
			return true
		}
		return false
	}})
	h.brokers["A"].Unicast("A", proto.Message{Kind: proto.KRelocReq})
	if got != 1 {
		t.Error("self-unicast should dispatch synchronously")
	}
}

// capturePlugin adapts closures to a chain stage: a true from onHandle or
// onDeliver consumes the event (the stage does not call next).
type capturePlugin struct {
	PassMiddleware
	onHandle  func(message.NodeID, proto.Message) bool
	onDeliver func(message.NodeID, message.Notification) bool
}

func (c *capturePlugin) OnMessage(_ *Broker, from message.NodeID, m proto.Message, next func()) {
	if c.onHandle == nil || !c.onHandle(from, m) {
		next()
	}
}

func (c *capturePlugin) OnDeliver(_ *Broker, port message.NodeID, n *message.Notification, _ []message.SubID, next func()) {
	if c.onDeliver == nil || !c.onDeliver(port, *n) {
		next()
	}
}

func TestAttachDetachPorts(t *testing.T) {
	h := newHarness(t, lineTopo(2), routing.StrategySimple)
	b := h.brokers["A"]
	h.connect("c", "A")
	if !b.HasPort("c") {
		t.Error("connect should attach port")
	}
	b.HandleMessage("c", proto.Message{Kind: proto.KDisconnect, Client: "c"})
	if b.HasPort("c") {
		t.Error("disconnect should detach port")
	}
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, lineTopo(3), routing.StrategySimple)
	h.connect("c", "C")
	h.subscribe("c", "C", "s1", filter.New(filter.Exists("k")))
	h.connect("p", "A")
	h.publish("p", "A", 1, attrInt("k", 1))
	a, c := h.brokers["A"].Stats(), h.brokers["C"].Stats()
	if a.PublishesRouted != 1 || a.Forwarded != 1 {
		t.Errorf("A stats = %+v", a)
	}
	if c.Delivered != 1 {
		t.Errorf("C stats = %+v", c)
	}
	if c.SubsProcessed == 0 {
		t.Error("C should have processed the subscription")
	}
}

func TestPluginInterceptsDeliver(t *testing.T) {
	h := newHarness(t, lineTopo(2), routing.StrategySimple)
	var intercepted []message.Notification
	h.brokers["B"].UseMiddleware(&capturePlugin{onDeliver: func(port message.NodeID, n message.Notification) bool {
		intercepted = append(intercepted, n)
		return true
	}})
	h.connect("c", "B")
	h.subscribe("c", "B", "s1", filter.New(filter.Exists("k")))
	h.connect("p", "A")
	h.publish("p", "A", 1, attrInt("k", 1))
	if len(intercepted) != 1 {
		t.Fatalf("plugin intercepted %d", len(intercepted))
	}
	if len(h.delivered("c")) != 0 {
		t.Error("interception must suppress delivery")
	}
	if h.brokers["B"].Stats().Intercepted != 1 {
		t.Error("interception not counted")
	}
}

func TestBrokerDefaults(t *testing.T) {
	b := New(Config{ID: "X", Send: func(message.NodeID, proto.Message) {}})
	if b.Now().IsZero() {
		t.Error("default clock should be wall time")
	}
	if b.String() == "" {
		t.Error("String should render")
	}
}

func TestBrokerPanicsWithoutSend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without Send should panic")
		}
	}()
	New(Config{ID: "X"})
}

// republishStage synchronously publishes a derived notification from
// inside the delivery hook — the re-entrant pattern the middleware
// contract allows and routePublish must survive: the nested publish
// recycles the routing table's match scratch while the outer publish is
// still being processed.
type republishStage struct{}

func (republishStage) OnPublish(b *Broker, from message.NodeID, n *message.Notification, next func()) {
	next()
}

func (republishStage) OnDeliver(b *Broker, port message.NodeID, n *message.Notification, subs []message.SubID, next func()) {
	next()
	if _, derived := n.Attrs["derived"]; derived {
		return // don't recurse on our own output
	}
	d := n.Clone()
	d.Attrs["derived"] = message.Bool(true)
	d.ID = message.NotificationID{Publisher: "chain", Seq: n.ID.Seq}
	b.HandleMessage(b.ID(), proto.Message{Kind: proto.KPublish, Note: &d})
}

func (republishStage) OnSubscribe(b *Broker, from message.NodeID, sub *proto.Subscription, next func()) {
	next()
}

// TestReentrantPublishFromDeliverHook pins the scratch-release discipline
// of routePublish: with several matching ports, every outer delivery
// still reaches its port (with the right subscription identity) even
// though each one triggers a nested publish that reuses the match
// buffers, and the derived notifications fan out to every port too.
func TestReentrantPublishFromDeliverHook(t *testing.T) {
	sent := make(map[message.NodeID][]proto.Message)
	b := New(Config{
		ID: "B", Send: func(to message.NodeID, m proto.Message) {
			sent[to] = append(sent[to], m)
		},
	})
	b.UseMiddleware(republishStage{})
	ports := []message.NodeID{"p1", "p2", "p3", "p4"}
	for i, p := range ports {
		b.AttachPort(p)
		b.HandleMessage(p, proto.Message{Kind: proto.KSubscribe, Sub: &proto.Subscription{
			ID:     message.SubID(fmt.Sprintf("%s/s", p)),
			Filter: filter.New(filter.Exists("k")),
		}})
		_ = i
	}
	n := message.NewNotification(map[string]message.Value{"k": message.Int(1)})
	n.ID = message.NotificationID{Publisher: "pub", Seq: 1}
	b.HandleMessage("p1", proto.Message{Kind: proto.KPublish, Note: &n})

	for _, p := range ports {
		if p == "p1" {
			continue // publisher's own link is excluded from the original
		}
		var original, derived int
		for _, m := range sent[p] {
			if m.Kind != proto.KDeliver || m.Note == nil {
				continue
			}
			if _, ok := m.Note.Attrs["derived"]; ok {
				derived++
				continue
			}
			original++
			if len(m.SubIDs) != 1 || m.SubIDs[0] != message.SubID(string(p)+"/s") {
				t.Errorf("%s: original delivery lost its subscription identity: %v", p, m.SubIDs)
			}
		}
		if original != 1 {
			t.Errorf("%s: %d original deliveries, want 1 (nested publish corrupted the match scratch?)", p, original)
		}
		// Each of the three original deliveries republished once; every
		// derived publish fans out to all four ports.
		if derived != 3 {
			t.Errorf("%s: %d derived deliveries, want 3", p, derived)
		}
	}
	// p1 receives only the derived notifications (self-dispatched from B).
	var derived int
	for _, m := range sent["p1"] {
		if m.Kind == proto.KDeliver && m.Note != nil {
			if _, ok := m.Note.Attrs["derived"]; !ok {
				t.Error("p1 got the original back (reflected to its source link)")
			}
			derived++
		}
	}
	if derived != 3 {
		t.Errorf("p1: %d derived deliveries, want 3", derived)
	}
}

// TestSubscribePairAllocs pins what a virtual client's subscribe and
// unsubscribe cost a broker with three peers once the routing state is
// warm: the broker-local copy of the arriving subscription, and one shared
// copy per forwarded batch — not one per forward.
func TestSubscribePairAllocs(t *testing.T) {
	peers := []message.NodeID{"P1", "P2", "P3"}
	var forwards []*proto.Subscription
	b := New(Config{ID: "X", Peers: peers, Send: func(_ message.NodeID, m proto.Message) {
		forwards = append(forwards, m.Sub)
	}})
	b.AttachPort("vc")
	// One constraint, shared with the resident entry, so the index files
	// both in one bucket and the pair costs it nothing.
	f := filter.New(filter.Eq("service", message.String("menu")))
	b.HandleMessage("P1", proto.Message{Kind: proto.KSubscribe, Sub: &proto.Subscription{ID: "resident", Filter: f}})
	sub := proto.Subscription{ID: "vc/s1", Filter: f}
	pair := func() {
		forwards = forwards[:0]
		b.HandleMessage("vc", proto.Message{Kind: proto.KSubscribe, Sub: &sub})
		b.HandleMessage("vc", proto.Message{Kind: proto.KUnsubscribe, Sub: &sub})
	}
	pair()
	if len(forwards) != 2*len(peers) || forwards[0] != forwards[1] || forwards[0] == forwards[len(peers)] {
		t.Fatalf("forwards %v: want one shared copy for the subscribe batch and another for the unsubscribe batch", forwards)
	}
	if n := testing.AllocsPerRun(100, pair); n != 3 {
		t.Errorf("a subscribe/unsubscribe pair allocates %v times, want 3", n)
	}
}
