package broker

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// recStage records hook crossings and optionally short-circuits or calls
// next twice (idempotence check).
type recStage struct {
	PassMiddleware
	name       string
	log        *[]string
	shortHooks map[string]bool
	doubleNext bool
}

func (s *recStage) hook(hook string, next func()) {
	*s.log = append(*s.log, s.name+":"+hook)
	if s.shortHooks[hook] {
		return
	}
	next()
	if s.doubleNext {
		next()
	}
}

func (s *recStage) OnPublish(_ *Broker, _ message.NodeID, _ *message.Notification, next func()) {
	s.hook("publish", next)
}

func (s *recStage) OnDeliver(_ *Broker, _ message.NodeID, _ *message.Notification, _ []message.SubID, next func()) {
	s.hook("deliver", next)
}

func (s *recStage) OnSubscribe(_ *Broker, _ message.NodeID, _ *proto.Subscription, next func()) {
	s.hook("subscribe", next)
}

// newChainBroker builds a standalone broker with one local port and a
// recorder for everything it sends.
func newChainBroker(t *testing.T) (*Broker, *[]proto.Message) {
	t.Helper()
	var sent []proto.Message
	b := New(Config{
		ID:   "B",
		Send: func(to message.NodeID, m proto.Message) { sent = append(sent, m) },
	})
	b.AttachPort("s") // subscriber port
	b.AttachPort("p") // publisher port
	return b, &sent
}

func subMsg(id message.SubID) proto.Message {
	f := filter.New(filter.Exists("k"))
	return proto.Message{Kind: proto.KSubscribe, Client: "s",
		Sub: &proto.Subscription{ID: id, Filter: f}}
}

func pubMsg(seq uint64) proto.Message {
	n := message.NewNotification(map[string]message.Value{"k": message.Int(int64(seq))})
	n.ID = message.NotificationID{Publisher: "p", Seq: seq}
	return proto.Message{Kind: proto.KPublish, Client: "p", Note: &n}
}

func countKind(sent []proto.Message, k proto.Kind) int {
	n := 0
	for _, m := range sent {
		if m.Kind == k {
			n++
		}
	}
	return n
}

func TestMiddlewareOrdering(t *testing.T) {
	b, sent := newChainBroker(t)
	var log []string
	b.UseMiddleware(
		&recStage{name: "a", log: &log},
		&recStage{name: "b", log: &log},
	)

	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))

	want := []string{
		"a:subscribe", "b:subscribe",
		"a:publish", "b:publish",
		"a:deliver", "b:deliver",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %s, want %s (full: %v)", i, log[i], want[i], log)
		}
	}
	if got := countKind(*sent, proto.KDeliver); got != 1 {
		t.Errorf("deliveries sent = %d, want 1", got)
	}
	if b.Stats().Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", b.Stats().Delivered)
	}
}

func TestMiddlewareShortCircuitDeliver(t *testing.T) {
	b, sent := newChainBroker(t)
	var log []string
	b.UseMiddleware(
		&recStage{name: "a", log: &log, shortHooks: map[string]bool{"deliver": true}},
		&recStage{name: "b", log: &log},
	)

	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))

	if got := countKind(*sent, proto.KDeliver); got != 0 {
		t.Errorf("deliveries sent = %d, want 0 (short-circuited)", got)
	}
	for _, e := range log {
		if e == "b:deliver" {
			t.Error("inner stage ran after outer short-circuit")
		}
	}
	if b.Stats().Intercepted != 1 {
		t.Errorf("Intercepted = %d, want 1", b.Stats().Intercepted)
	}
	if b.Stats().Delivered != 0 {
		t.Errorf("Delivered = %d, want 0", b.Stats().Delivered)
	}
}

func TestMiddlewareShortCircuitPublish(t *testing.T) {
	b, sent := newChainBroker(t)
	var log []string
	b.UseMiddleware(&recStage{name: "a", log: &log, shortHooks: map[string]bool{"publish": true}})

	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))

	if got := countKind(*sent, proto.KDeliver); got != 0 {
		t.Errorf("deliveries sent = %d, want 0 (publish dropped)", got)
	}
	if b.Stats().PublishesRouted != 0 {
		t.Errorf("PublishesRouted = %d, want 0 (default processing skipped)", b.Stats().PublishesRouted)
	}
}

func TestMiddlewareShortCircuitSubscribe(t *testing.T) {
	b, sent := newChainBroker(t)
	var log []string
	b.UseMiddleware(&recStage{name: "a", log: &log, shortHooks: map[string]bool{"subscribe": true}})

	b.HandleMessage("s", subMsg("s/s1"))
	if b.Router().Table().Len() != 0 {
		t.Error("subscription installed despite short-circuit")
	}

	b.HandleMessage("p", pubMsg(1))
	if got := countKind(*sent, proto.KDeliver); got != 0 {
		t.Errorf("deliveries sent = %d, want 0", got)
	}
}

func TestMiddlewareNextIdempotent(t *testing.T) {
	b, sent := newChainBroker(t)
	var log []string
	b.UseMiddleware(&recStage{name: "a", log: &log, doubleNext: true})

	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))

	if got := countKind(*sent, proto.KDeliver); got != 1 {
		t.Errorf("deliveries sent = %d, want exactly 1 despite double next", got)
	}
	if b.Router().Table().Len() != 1 {
		t.Errorf("table entries = %d, want 1", b.Router().Table().Len())
	}
}

// consumingPlugin is a session-layer-shaped stage: it consumes KConnect
// messages (declining to call next) and claims deliveries to a chosen port.
type consumingPlugin struct {
	PassMiddleware
	intercept message.NodeID
	handled   int
}

func (p *consumingPlugin) OnMessage(_ *Broker, _ message.NodeID, m proto.Message, next func()) {
	if m.Kind == proto.KConnect {
		p.handled++
		return
	}
	next()
}

func (p *consumingPlugin) OnDeliver(_ *Broker, port message.NodeID, _ *message.Notification, _ []message.SubID, next func()) {
	if port != p.intercept {
		next()
	}
}

func TestPluginAdaptedOntoChain(t *testing.T) {
	b, sent := newChainBroker(t)
	pl := &consumingPlugin{intercept: "s"}
	b.UseMiddleware(pl)
	var log []string
	inner := &recStage{name: "in", log: &log}
	b.UseMiddleware(inner)

	// The stage consumes KConnect before default processing attaches a
	// port; an inner MessageInterceptor would not see it either.
	b.HandleMessage("x", proto.Message{Kind: proto.KConnect, Client: "x"})
	if pl.handled != 1 {
		t.Fatalf("stage handled %d messages, want 1", pl.handled)
	}
	if b.HasPort("x") {
		t.Error("default KConnect processing ran despite the stage consuming it")
	}

	// Deliveries to the intercepted port are claimed by the plugin stage
	// before inner middleware runs.
	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))
	if got := countKind(*sent, proto.KDeliver); got != 0 {
		t.Errorf("deliveries sent = %d, want 0 (plugin buffered)", got)
	}
	for _, e := range log {
		if e == "in:deliver" {
			t.Error("inner middleware saw a delivery the plugin claimed")
		}
	}
	if b.Stats().Intercepted != 1 {
		t.Errorf("Intercepted = %d, want 1", b.Stats().Intercepted)
	}

	if b.Middlewares() != 2 {
		t.Errorf("Middlewares() = %d, want 2", b.Middlewares())
	}
}

// mutatingStage stamps an attribute on publishes.
type mutatingStage struct{ PassMiddleware }

func (mutatingStage) OnPublish(b *Broker, _ message.NodeID, n *message.Notification, next func()) {
	n.Attrs["stamped"] = message.String(string(b.ID()))
	next()
}

func TestMiddlewareMutatesNotification(t *testing.T) {
	b, sent := newChainBroker(t)
	b.UseMiddleware(mutatingStage{})
	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))
	for _, m := range *sent {
		if m.Kind != proto.KDeliver {
			continue
		}
		if v, ok := m.Note.Get("stamped"); !ok || v.Str() != "B" {
			t.Errorf("delivered note not stamped: %v", m.Note)
		}
		return
	}
	t.Fatal("no delivery recorded")
}

// tableStage is a stage on all four hooks whose behaviour is set by the
// test: pass the event on, call next twice, decline it, or keep next for a
// late call.
type tableStage struct {
	name string
	log  *[]string
	mode stageMode
	only string // the hook mode applies to; empty = every hook
	kept []func()
}

type stageMode int

const (
	modePass stageMode = iota
	modeDouble
	modeDecline
	modeKeepAndPass
	modeKeepAndDecline
)

func (s *tableStage) hook(hook string, next func()) {
	*s.log = append(*s.log, s.name+":"+hook)
	mode := s.mode
	if s.only != "" && s.only != hook {
		mode = modePass
	}
	switch mode {
	case modePass:
		next()
	case modeDouble:
		next()
		next()
	case modeKeepAndPass:
		s.kept = append(s.kept, next)
		next()
	case modeKeepAndDecline:
		s.kept = append(s.kept, next)
	}
}

func (s *tableStage) OnMessage(_ *Broker, _ message.NodeID, _ proto.Message, next func()) {
	s.hook("message", next)
}

func (s *tableStage) OnPublish(_ *Broker, _ message.NodeID, _ *message.Notification, next func()) {
	s.hook("publish", next)
}

func (s *tableStage) OnDeliver(_ *Broker, _ message.NodeID, _ *message.Notification, _ []message.SubID, next func()) {
	s.hook("deliver", next)
}

func (s *tableStage) OnSubscribe(_ *Broker, _ message.NodeID, _ *proto.Subscription, next func()) {
	s.hook("subscribe", next)
}

// hookCase is one hook kind of the chain table: an event that crosses the
// hook exactly once, and how often the broker's default processing behind
// the hook has run so far.
type hookCase struct {
	hook  string
	setup func(b *Broker)
	fire  func(b *Broker, seq uint64)
	ran   func(b *Broker, sent []proto.Message) int
}

var hookCases = []hookCase{
	{
		hook: "message",
		fire: func(b *Broker, seq uint64) {
			b.HandleMessage("x", proto.Message{Kind: proto.KConnect, Client: message.NodeID(fmt.Sprint("x", seq))})
		},
		ran: func(b *Broker, _ []proto.Message) int { return len(b.Ports()) - 2 },
	},
	{
		hook: "publish",
		fire: func(b *Broker, seq uint64) { b.HandleMessage("p", pubMsg(seq)) },
		ran:  func(b *Broker, _ []proto.Message) int { return b.Stats().PublishesRouted },
	},
	{
		hook:  "deliver",
		setup: func(b *Broker) { b.InstallSub(*subMsg("s/s1").Sub, "s") },
		fire:  func(b *Broker, seq uint64) { b.HandleMessage("p", pubMsg(seq)) },
		ran: func(b *Broker, sent []proto.Message) int {
			if got := countKind(sent, proto.KDeliver); got != b.Stats().Delivered {
				return -1 // the counter and the wire disagree
			}
			return b.Stats().Delivered
		},
	},
	{
		hook: "subscribe",
		fire: func(b *Broker, seq uint64) {
			b.HandleMessage("s", subMsg(message.SubID(fmt.Sprint("s/t", seq))))
		},
		ran: func(b *Broker, _ []proto.Message) int { return b.Router().Table().Len() },
	},
}

// TestChainTable walks every hook kind through chains of depth 0, 1 and 4
// and checks the chain's contract at every position: attachment order,
// next at most once, declining stops the event, an outer stage cannot
// revive what an inner one declined, and a next kept past its hook is dead.
func TestChainTable(t *testing.T) {
	for _, hc := range hookCases {
		for _, depth := range []int{0, 1, 4} {
			// build makes a fresh broker whose chain is depth stages, each
			// in the given mode (modePass unless named) on hc's hook.
			type result struct {
				b      *Broker
				sent   *[]proto.Message
				stages []*tableStage
				log    *[]string
			}
			build := func(modes map[int]stageMode) result {
				b, sent := newChainBroker(t)
				if hc.setup != nil {
					hc.setup(b)
				}
				var log []string
				r := result{b: b, sent: sent, log: &log}
				for i := 0; i < depth; i++ {
					s := &tableStage{name: fmt.Sprint("s", i), log: &log, mode: modes[i], only: hc.hook}
					r.stages = append(r.stages, s)
					b.UseMiddleware(s)
				}
				return r
			}
			crossed := func(r result) []string {
				var out []string
				for _, e := range *r.log {
					if strings.HasSuffix(e, ":"+hc.hook) {
						out = append(out, strings.TrimSuffix(e, ":"+hc.hook))
					}
				}
				return out
			}
			wantStages := func(n int) []string {
				var out []string
				for i := 0; i < n; i++ {
					out = append(out, fmt.Sprint("s", i))
				}
				return out
			}
			check := func(name string, r result, wantCrossed int, wantRan int) {
				t.Helper()
				if got, want := crossed(r), wantStages(wantCrossed); !slices.Equal(got, want) {
					t.Errorf("%s depth %d, %s: stages crossed = %v, want %v", hc.hook, depth, name, got, want)
				}
				if got := hc.ran(r.b, *r.sent); got != wantRan {
					t.Errorf("%s depth %d, %s: default processing ran %d times, want %d", hc.hook, depth, name, got, wantRan)
				}
			}

			r := build(nil)
			hc.fire(r.b, 1)
			check("all pass", r, depth, 1)

			all := func(m stageMode) map[int]stageMode {
				modes := map[int]stageMode{}
				for i := 0; i < depth; i++ {
					modes[i] = m
				}
				return modes
			}
			r = build(all(modeDouble))
			hc.fire(r.b, 1)
			check("every stage calls next twice", r, depth, 1)

			for p := 0; p < depth; p++ {
				r = build(map[int]stageMode{p: modeDecline})
				hc.fire(r.b, 1)
				check(fmt.Sprint("stage ", p, " declines"), r, p+1, 0)

				if p > 0 {
					modes := all(modeDouble)
					modes[p] = modeDecline
					r = build(modes)
					hc.fire(r.b, 1)
					check(fmt.Sprint("stage ", p, " declines, outer stages call next twice"), r, p+1, 0)
				}

				// A next kept past its hook does nothing once the event is
				// over, and the chain handles the next event as ever.
				for _, mode := range []stageMode{modeKeepAndPass, modeKeepAndDecline} {
					r = build(map[int]stageMode{p: mode})
					hc.fire(r.b, 1)
					reach, ran := depth, 1
					if mode == modeKeepAndDecline {
						reach, ran = p+1, 0
					}
					for _, next := range r.stages[p].kept {
						next()
					}
					check(fmt.Sprint("stage ", p, " keeps next (mode ", mode, "), late call"), r, reach, ran)
					r.stages[p].mode = modePass
					*r.log = nil
					hc.fire(r.b, 2)
					check(fmt.Sprint("stage ", p, " kept next, following event"), r, depth, ran+1)
				}
			}
		}
	}
}

// recPlugin is a session-layer-shaped stage — it has the message and
// delivery hooks and the flush observer, and passes publish and subscribe
// through unseen: it logs its hooks and claims what the test tells it to.
type recPlugin struct {
	PassMiddleware
	name          string
	log           *[]string
	claimMessages bool
	claimDelivery bool
}

func (p *recPlugin) OnMessage(_ *Broker, _ message.NodeID, _ proto.Message, next func()) {
	*p.log = append(*p.log, p.name+":message")
	if !p.claimMessages {
		next()
	}
}

func (p *recPlugin) OnDeliver(_ *Broker, _ message.NodeID, _ *message.Notification, _ []message.SubID, next func()) {
	*p.log = append(*p.log, p.name+":deliver")
	if !p.claimDelivery {
		next()
	}
}

// TestChainMixesPluginsAndMiddleware attaches session-layer-shaped stages
// and full stages alternately: each hook crosses them in attachment order,
// a stage is a pass-through on the hooks it does not override, and what
// one stage claims (by declining next) the stages behind it never see.
func TestChainMixesPluginsAndMiddleware(t *testing.T) {
	var log []string
	b, sent := newChainBroker(t)
	p1 := &recPlugin{name: "P1", log: &log}
	p2 := &recPlugin{name: "P2", log: &log}
	b.UseMiddleware(&tableStage{name: "a", log: &log})
	b.UseMiddleware(p1)
	b.UseMiddleware(&tableStage{name: "b", log: &log})
	b.UseMiddleware(p2)

	b.HandleMessage("s", subMsg("s/s1"))
	b.HandleMessage("p", pubMsg(1))
	want := []string{
		"a:message", "P1:message", "b:message", "P2:message", "a:subscribe", "b:subscribe",
		"a:message", "P1:message", "b:message", "P2:message", "a:publish", "b:publish",
		"a:deliver", "P1:deliver", "b:deliver", "P2:deliver",
	}
	if !slices.Equal(log, want) {
		t.Errorf("log = %v\nwant %v", log, want)
	}
	if got := countKind(*sent, proto.KDeliver); got != 1 {
		t.Errorf("deliveries sent = %d, want 1", got)
	}

	log = nil
	p1.claimDelivery = true
	b.HandleMessage("p", pubMsg(2))
	p1.claimDelivery, p2.claimMessages = false, true
	b.HandleMessage("p", pubMsg(3))
	want = []string{
		"a:message", "P1:message", "b:message", "P2:message", "a:publish", "b:publish",
		"a:deliver", "P1:deliver",
		"a:message", "P1:message", "b:message", "P2:message",
	}
	if !slices.Equal(log, want) {
		t.Errorf("log with claims = %v\nwant %v", log, want)
	}
	if got := countKind(*sent, proto.KDeliver); got != 1 {
		t.Errorf("deliveries sent = %d, want still 1", got)
	}
}

// republishMidChain publishes a derived notification from inside OnDeliver
// before it passes the delivery on: the outer event waits in the middle of
// the chain while the nested one crosses all of it.
type republishMidChain struct {
	tableStage
}

func (s *republishMidChain) OnDeliver(b *Broker, port message.NodeID, n *message.Notification, subs []message.SubID, next func()) {
	if n.ID.Publisher == "p" {
		d := n.Clone()
		d.ID = message.NotificationID{Publisher: "derived", Seq: n.ID.Seq}
		b.HandleMessage(b.ID(), proto.Message{Kind: proto.KPublish, Note: &d})
	}
	s.tableStage.OnDeliver(b, port, n, subs, next)
}

func TestChainReentrantPublishMidChain(t *testing.T) {
	var log []string
	b, sent := newChainBroker(t)
	b.UseMiddleware(
		&tableStage{name: "a", log: &log, mode: modeDouble},
		&republishMidChain{tableStage{name: "b", log: &log}},
		&tableStage{name: "c", log: &log, mode: modeDouble},
	)
	b.InstallSub(*subMsg("s/s1").Sub, "s")
	b.HandleMessage("p", pubMsg(1))
	want := []string{
		"a:message", "b:message", "c:message", "a:publish", "b:publish", "c:publish",
		"a:deliver",
		// the nested event, start to finish, on a cursor of its own
		"a:message", "b:message", "c:message", "a:publish", "b:publish", "c:publish",
		"a:deliver", "b:deliver", "c:deliver",
		// the outer one resumes where it waited
		"b:deliver", "c:deliver",
	}
	if !slices.Equal(log, want) {
		t.Errorf("log = %v\nwant %v", log, want)
	}
	var order []message.NodeID
	for _, m := range *sent {
		if m.Kind == proto.KDeliver {
			order = append(order, m.Note.ID.Publisher)
		}
	}
	if !slices.Equal(order, []message.NodeID{"derived", "p"}) {
		t.Errorf("deliveries by publisher = %v, want [derived p]", order)
	}
}

// lateCaller keeps every OnDeliver next it is handed, and from inside the
// hook of a derived notification calls all it has kept so far.
type lateCaller struct {
	PassMiddleware
	kept []func()
}

func (s *lateCaller) OnDeliver(_ *Broker, _ message.NodeID, n *message.Notification, _ []message.SubID, next func()) {
	if n.ID.Publisher == "derived" {
		for _, late := range s.kept {
			late()
		}
	}
	s.kept = append(s.kept, next)
	next()
}

// TestChainRetainedNextCannotResumeAnotherEvent has a delivery wait in the
// middle of the chain, its next not called yet, while a nested event's hook
// calls every next kept so far — the waiting delivery's cursor among them.
// The waiting delivery must resume only when its own stage says so.
func TestChainRetainedNextCannotResumeAnotherEvent(t *testing.T) {
	var log []string
	b, sent := newChainBroker(t)
	b.UseMiddleware(&lateCaller{}, &republishMidChain{tableStage{name: "r", log: &log}})
	b.InstallSub(*subMsg("s/s1").Sub, "s")
	b.HandleMessage("p", pubMsg(1))
	b.HandleMessage("p", pubMsg(2))
	var order []message.NotificationID
	for _, m := range *sent {
		if m.Kind == proto.KDeliver {
			order = append(order, m.Note.ID)
		}
	}
	want := []message.NotificationID{
		{Publisher: "derived", Seq: 1}, {Publisher: "p", Seq: 1},
		{Publisher: "derived", Seq: 2}, {Publisher: "p", Seq: 2},
	}
	if !slices.Equal(order, want) {
		t.Errorf("deliveries = %v, want %v", order, want)
	}
	if got := b.Stats().Delivered; got != 4 {
		t.Errorf("Delivered = %d, want 4", got)
	}
}

// publishBench is HandleMessage(KPublish) as the benchmark's
// broker.handle_publish_allocs probe sets it up: a broker on its own with
// one matching local port, a Send that goes nowhere, a fresh copy of the
// notification with a fresh sequence number on every call — one allocation
// of the probe's own. relay sends the note in the relay form instead, as a
// broker's links decode it, its bytes in a buffer of their own (again the
// probe's one allocation). Without the port the broker only forwards.
func publishBench(stages int, relay, port bool, setup ...func(*Broker)) func() {
	b := New(Config{ID: "X", Peers: []message.NodeID{"P", "R"}, Send: func(message.NodeID, proto.Message) {}})
	for _, fn := range setup {
		fn(b)
	}
	for i := 0; i < stages; i++ {
		b.UseMiddleware(PassMiddleware{})
	}
	if port {
		b.AttachPort("s")
		b.HandleMessage("s", subMsg("s/s1"))
	} else {
		b.HandleMessage("R", subMsg("r/s1"))
	}
	m := pubMsg(0)
	seq := uint64(0)
	return func() {
		seq++
		if relay {
			n := *m.Note // stays on the stack: only its encoding travels
			n.ID.Seq = seq
			b.HandleMessage("P", proto.Message{Kind: proto.KPublish, Client: "p", RawNote: codec.AppendNote(make([]byte, 0, 64), &n)})
			return
		}
		n := *m.Note
		n.ID.Seq = seq
		m.Note = &n
		b.HandleMessage("P", m)
	}
}

// TestHandlePublishAllocs holds the chain to its allocation budget. A
// publish delivered to a local port costs, with no stages, the probe's own
// allocation, the matched subscription IDs and the delivered copy — 3 —
// and a relay-form note the map it is built into besides — 5. Pass-through
// stages cost not one more, nor does the forwarding memory of a cyclic
// graph, and a relay-form publish that is only forwarded costs nothing
// beyond the probe's own.
func TestHandlePublishAllocs(t *testing.T) {
	// The square X-P-Z-R-X: X's tree links are P and R, and the cycle turns
	// the forwarding memory on.
	mesh := func(b *Broker) {
		b.SetMeshTopology([]message.NodeID{"X", "P", "R", "Z"},
			[][2]message.NodeID{{"X", "P"}, {"X", "R"}, {"P", "Z"}, {"R", "Z"}})
	}
	for _, form := range []struct {
		name  string
		relay bool
		max   float64
	}{{"notification", false, 3}, {"relay form", true, 5}} {
		empty := testing.AllocsPerRun(200, publishBench(0, form.relay, true))
		if empty > form.max {
			t.Errorf("HandleMessage(KPublish, %s), empty chain: %v allocs, want <= %v", form.name, empty, form.max)
		}
		for _, stages := range []int{1, 4} {
			if got := testing.AllocsPerRun(200, publishBench(stages, form.relay, true)); got != empty {
				t.Errorf("HandleMessage(KPublish, %s), %d pass-through stages: %v allocs, want the empty chain's %v", form.name, stages, got, empty)
			}
		}
		// A cyclic graph adds the forwarding memory to every publish;
		// recording a notification in it must cost no allocation.
		if got := testing.AllocsPerRun(200, publishBench(0, form.relay, true, mesh)); got != empty {
			t.Errorf("HandleMessage(KPublish, %s), cyclic graph: %v allocs, want a forest's %v", form.name, got, empty)
		}
	}
	// A broker that only forwards a relay-form publish builds nothing: the
	// probe's buffer is the one allocation, on every chain and on a cyclic
	// graph.
	for _, c := range []struct {
		name   string
		stages int
		setup  []func(*Broker)
	}{{"empty chain", 0, nil}, {"4 pass-through stages", 4, nil}, {"cyclic graph", 0, []func(*Broker){mesh}}} {
		if got := testing.AllocsPerRun(200, publishBench(c.stages, true, false, c.setup...)); got != 1 {
			t.Errorf("HandleMessage(KPublish, relay form), forward only, %s: %v allocs, want the probe's 1", c.name, got)
		}
	}
}

func BenchmarkHandlePublish(b *testing.B) {
	for _, stages := range []int{0, 4} {
		for _, relay := range []bool{false, true} {
			b.Run(fmt.Sprintf("chain%d/relay=%v", stages, relay), func(b *testing.B) {
				publish := publishBench(stages, relay, true)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					publish()
				}
			})
		}
	}
}
