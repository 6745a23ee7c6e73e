package rebeca

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/telemetry"
	"rebeca/internal/wire"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", within, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// metricFamilies returns the "# TYPE" family names of one /metrics scrape.
func metricFamilies(t *testing.T, opsAddr string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, line := range strings.Split(httpGet(t, "http://"+opsAddr+"/metrics"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = true
		}
	}
	return out
}

// freeAddrs reserves n distinct loopback addresses by binding and releasing
// ephemeral ports — for fleets whose brokers must know each other's address
// before any of them has started.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		out[i] = ln.Addr().String()
	}
	return out
}

func waitReady(t *testing.T, nodes ...*BrokerNode) {
	t.Helper()
	for _, n := range nodes {
		n := n
		eventually(t, 3*time.Second, fmt.Sprintf("%s ready", n.id), func() bool {
			ok, _ := n.Ready()
			return ok
		})
	}
}

var lineABC = [][2]NodeID{{"A", "B"}, {"B", "C"}}

// goldenFamilies is the list CI's ops-scrape job requires of every broker.
var goldenFamilies = []string{
	"rebeca_publishes_total", "rebeca_deliveries_total",
	"rebeca_subscribes_total", "rebeca_match_seconds",
	"rebeca_e2e_latency_seconds", "rebeca_link_state",
	"rebeca_codec_frame_bytes", "rebeca_trace_spans_retained",
	"rebeca_discovery_peers", "rebeca_discovery_events_total",
	"rebeca_spanning_tree_recomputations_total",
	"rebeca_trace_sampled_total", "rebeca_trace_retro_total",
	"rebeca_trace_pending",
	"rebeca_mobility_relocations_total", "rebeca_core_wasted_total",
}

// TestStartBrokerRejectsSpec: StartBroker refuses a contradictory spec
// before it starts anything — among them a WithMovement graph beside the
// spec's own edges, which would otherwise be silently replaced.
func TestStartBrokerRejectsSpec(t *testing.T) {
	registry := WithRegistry("file:" + filepath.Join(t.TempDir(), "peers.json"))
	for _, tc := range []struct {
		name string
		spec BrokerSpec
		opts []Option
		want string
	}{
		{"edges and registry", BrokerSpec{ID: "A", Edges: lineABC}, []Option{registry}, "not both"},
		{"dial under registry", BrokerSpec{ID: "A", Dial: map[NodeID]string{"B": "127.0.0.1:1"}}, []Option{registry}, "replaces BrokerSpec.Dial"},
		{"movement beside edges", BrokerSpec{ID: "A", Edges: lineABC}, []Option{WithMovement(Line(3))}, "drop WithMovement"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := StartBroker(tc.spec, tc.opts...)
			if err == nil {
				_ = n.Close(0)
				t.Fatalf("StartBroker accepted the spec, want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestDeploymentsAcceptRing: New, NewLive and a StartBroker fleet take
// the same cyclic graph — the brokers elect their spanning tree over it —
// and each carries a publish at B2 to a subscriber at B0.
func TestDeploymentsAcceptRing(t *testing.T) {
	ring := Ring(4)
	for _, host := range []struct {
		name  string
		build func(...Option) (Deployment, error)
	}{
		{"New", func(o ...Option) (Deployment, error) { return New(o...) }},
		{"NewLive", func(o ...Option) (Deployment, error) { return NewLive(o...) }},
	} {
		t.Run(host.name, func(t *testing.T) {
			d, err := host.build(WithMovement(ring))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			sub, pub := d.NewClient("sub"), d.NewClient("pub")
			if err := sub.Connect("B0"); err != nil {
				t.Fatal(err)
			}
			events := sub.Subscribe(NewFilter(Exists("n"))).Events()
			if err := pub.Connect("B2"); err != nil {
				t.Fatal(err)
			}
			eventually(t, 3*time.Second, "delivery B2 → B0", func() bool {
				d.Settle()
				if _, err := pub.Publish(map[string]Value{"n": Int(1)}); err != nil {
					t.Fatal(err)
				}
				d.Settle()
				select {
				case <-events:
					return true
				case <-time.After(10 * time.Millisecond):
					return false
				}
			})
		})
	}
	t.Run("StartBroker", func(t *testing.T) {
		ids, addrs := ring.Nodes(), freeAddrs(t, 4)
		var nodes []*BrokerNode
		for i, id := range ids {
			// Each broker dials the neighbors started before it.
			spec := BrokerSpec{ID: id, Listen: addrs[i], Edges: ring.Edges(), Dial: map[NodeID]string{}}
			for j, p := range ids[:i] {
				if ring.HasEdge(id, p) {
					spec.Dial[p] = addrs[j]
				}
			}
			n, err := StartBroker(spec)
			if err != nil {
				t.Fatalf("start %s: %v", id, err)
			}
			defer n.Close(0)
			nodes = append(nodes, n)
		}
		waitReady(t, nodes...)
		var got atomic.Int64
		sub := wire.NewRemoteClient("sub", func(Notification, []SubID) { got.Add(1) })
		if err := sub.Connect(addrs[0], "", nil, 1); err != nil {
			t.Fatal(err)
		}
		defer sub.Disconnect()
		if err := sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub",
			Sub: &proto.Subscription{ID: "sub/s1", Filter: NewFilter(Exists("n"))}}); err != nil {
			t.Fatal(err)
		}
		pub := wire.NewRemoteClient("pub", nil)
		if err := pub.Connect(addrs[2], "", nil, 1); err != nil {
			t.Fatal(err)
		}
		defer pub.Disconnect()
		var seq uint64
		eventually(t, 3*time.Second, "delivery B2 → B0", func() bool {
			seq++
			n := message.NewNotification(map[string]Value{"n": Int(1)})
			n.ID = NotificationID{Publisher: "pub", Seq: seq}
			if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			return got.Load() > 0
		})
	})
}

// TestStartBrokerAssembly drives the assembly rebeca-broker uses: a static
// line A-B-C brought up out of order, end-to-end delivery through raw wire
// clients, the ops surface CI's shell jobs check, and the durable restart
// path (Close with a drain, then Recover on the same WAL directory).
func TestStartBrokerAssembly(t *testing.T) {
	addrs := freeAddrs(t, 3)
	addrA, addrB, addrC := addrs[0], addrs[1], addrs[2]
	walDir := t.TempDir()
	wal, err := OpenWAL(walDir, WALNoSync())
	if err != nil {
		t.Fatal(err)
	}
	start := func(spec BrokerSpec, opts ...Option) *BrokerNode {
		t.Helper()
		spec.Edges = lineABC
		n, err := StartBroker(spec, append(opts, WithHeartbeat(100*time.Millisecond, 0))...)
		if err != nil {
			t.Fatalf("start %s: %v", spec.ID, err)
		}
		return n
	}
	// The dial map of the binary's doc comment; C, A, B is no valid
	// "dependencies first" order — both of C's and A's links come up late.
	nC := start(BrokerSpec{ID: "C", Listen: addrC, Dial: map[NodeID]string{"B": addrB}})
	defer nC.Close(0)
	tracer, limiter := NewTracer(nil), NewRateLimiter(1e6, 1000)
	nA := start(BrokerSpec{ID: "A", Listen: addrA},
		WithOps("127.0.0.1:0"), WithTraceSampling(4, time.Second), WithMiddleware(tracer, limiter))
	defer nA.Close(0)
	// B's session layers are read through a counting stage, as the
	// simulator's outcome reads them.
	tallyB := &broker.MechanismTally{}
	startB := func(w *WALStore) *BrokerNode {
		return start(BrokerSpec{ID: "B", Listen: addrB, Dial: map[NodeID]string{"A": addrA}}, WithDurable(w), WithMiddleware(tallyB), WithOps("127.0.0.1:0"))
	}
	nB := startB(wal)
	defer func() { nB.Close(0) }()
	waitReady(t, nA, nB, nC)
	if nA.Addr() != addrA || nA.OpsAddr() == "" || nC.OpsAddr() != "" {
		t.Fatalf("addresses: A %s (ops %q), C ops %q", nA.Addr(), nA.OpsAddr(), nC.OpsAddr())
	}

	// End to end: subscriber at C, publisher at A.
	filter := NewFilter(Eq("k", String("v")))
	var gotC atomic.Int64
	subC := wire.NewRemoteClient("sub", func(Notification, []SubID) { gotC.Add(1) })
	if err := subC.Connect(addrC, "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer subC.Disconnect()
	if err := subC.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub",
		Sub: &proto.Subscription{ID: "sub/s1", Filter: filter}}); err != nil {
		t.Fatal(err)
	}
	pub := wire.NewRemoteClient("pub", nil)
	if err := pub.Connect(addrA, "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer pub.Disconnect()
	var seq uint64
	publish := func() {
		seq++
		n := message.NewNotification(map[string]Value{"k": String("v")})
		n.ID = NotificationID{Publisher: "pub", Seq: seq}
		n.Published = time.Now()
		if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}); err != nil {
			t.Fatal(err)
		}
	}
	// The subscription is still travelling C → B → A: publish until one
	// notification makes it all the way.
	eventually(t, 3*time.Second, "delivery A → C", func() bool {
		publish()
		return gotC.Load() > 0
	})

	// The ops surface of A: CI's golden families, and every knob once.
	fams := metricFamilies(t, nA.OpsAddr())
	for _, name := range goldenFamilies {
		if !fams[name] {
			t.Errorf("A's /metrics lacks family %s", name)
		}
	}
	cfgBody := httpGet(t, "http://"+nA.OpsAddr()+"/config")
	for _, knob := range []string{"heartbeat", "trace", "sample", "slow", "trace.pending", "rate_limit"} {
		if got := strings.Count(cfgBody, strconv.Quote(knob)+":"); got != 1 {
			t.Errorf("/config lists knob %q %d times, want 1", knob, got)
		}
	}
	if line := nA.StatsLine(); !strings.Contains(line, "link[B]=established") || strings.Contains(line, "publishes=0 ") ||
		!strings.Contains(line, " relocations=0 recovered=0 recovery-errors=0") {
		t.Errorf("stats digest = %q", line)
	}

	// Durable restart of B: a durable subscriber goes ghost, notifications
	// pile up behind it in the WAL, B shuts down and comes back on the same
	// directory — the session is there again and the backlog replays.
	var mu sync.Mutex
	gotD := make(map[uint64]bool)
	dur := wire.NewRemoteClient("dur", func(n Notification, _ []SubID) {
		mu.Lock()
		gotD[n.ID.Seq] = true
		mu.Unlock()
	})
	countD := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(gotD)
	}
	profile := []proto.Subscription{{ID: "dur/d:inbox", Filter: filter}}
	if err := dur.Connect(addrB, "", profile, 1); err != nil {
		t.Fatal(err)
	}
	eventually(t, 3*time.Second, "durable subscription live at B", func() bool {
		publish()
		return countD() > 0
	})
	if err := dur.Disconnect(); err != nil {
		t.Fatal(err)
	}
	managerOfB := func(fn func(state string, buffered, recovered int)) {
		nB.node.Inspect(func(*broker.Broker) {
			fn(nB.layers.Manager.SessionState("dur"), tallyB.At("B", broker.MobilityBuffered), tallyB.At("B", broker.MobilityRecoveredSessions))
		})
	}
	eventually(t, 3*time.Second, "dur's session ghosted at B", func() (ghost bool) {
		managerOfB(func(state string, _, _ int) { ghost = state == "ghost" })
		return ghost
	})
	before := seq
	const backlog = 5
	for i := 0; i < backlog; i++ {
		publish()
	}
	eventually(t, 3*time.Second, "backlog buffered at B", func() (done bool) {
		managerOfB(func(_ string, buffered, _ int) { done = buffered >= backlog })
		return done
	})
	if err := nB.Close(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal2, err := OpenWAL(walDir, WALNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	nB = startB(wal2)
	managerOfB(func(state string, _, recovered int) {
		if state != "ghost" || recovered != 1 {
			t.Errorf("after restart: session state %q, %d recovered; want ghost, 1", state, recovered)
		}
	})
	if line := nB.StatsLine(); !strings.Contains(line, " recovered=1 recovery-errors=0") {
		t.Errorf("after restart: B's stats digest = %q, want recovered=1 recovery-errors=0", line)
	}
	if err := dur.Connect(addrB, "B", profile, 2); err != nil {
		t.Fatal(err)
	}
	defer dur.Disconnect()
	eventually(t, 3*time.Second, "backlog replayed after restart", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for s := before + 1; s <= before+backlog; s++ {
			if !gotD[s] {
				return false
			}
		}
		return true
	})
}

// orderProbe is a user middleware stage that records what the session
// layers in front of it let through. Shared by every broker of a host.
type orderProbe struct {
	PassMiddleware
	mu       sync.Mutex
	kinds    map[proto.Kind]int
	dynamic  int            // KSubscribe/KUnsubscribe carrying a location-dependent filter
	subs     map[SubID]bool // KSubscribe seen from a client port, by ID
	delivers map[NodeID][]uint64
}

func newOrderProbe() *orderProbe {
	return &orderProbe{kinds: make(map[proto.Kind]int), subs: make(map[SubID]bool), delivers: make(map[NodeID][]uint64)}
}

func (p *orderProbe) OnMessage(_ *Broker, _ NodeID, m proto.Message, next func()) {
	p.mu.Lock()
	p.kinds[m.Kind]++
	if m.Sub != nil && (m.Kind == proto.KSubscribe || m.Kind == proto.KUnsubscribe) {
		if m.Sub.Filter.Dynamic() {
			p.dynamic++
		}
		p.subs[m.Sub.ID] = true
	}
	p.mu.Unlock()
	next()
}

func (p *orderProbe) OnDeliver(_ *Broker, port NodeID, n *Notification, _ []SubID, next func()) {
	p.mu.Lock()
	p.delivers[port] = append(p.delivers[port], n.ID.Seq)
	p.mu.Unlock()
	next()
}

func (p *orderProbe) delivered(port NodeID) []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.delivers[port]...)
}

// TestSessionLayersPrecedeMiddleware pins the one attach order on every
// host of a broker: a stage passed as user middleware sits behind the
// replicator and the mobility manager, so it never sees what they consume
// and does see what they pass.
func TestSessionLayersPrecedeMiddleware(t *testing.T) {
	graph := func() *Graph {
		g := NewGraph()
		g.AddEdge("A", "B")
		return g
	}
	hosts := []struct {
		name  string
		build func(t *testing.T, probe Middleware) Deployment
	}{
		{"sim.NewCluster", func(t *testing.T, probe Middleware) Deployment {
			sys, err := New(WithMovement(graph()), WithMiddleware(probe))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"NewLive", func(t *testing.T, probe Middleware) Deployment {
			l, err := NewLive(WithMovement(graph()), WithMiddleware(probe))
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
		{"StartBroker", func(t *testing.T, probe Middleware) Deployment {
			// Two separately started brokers, driven through Live's client
			// ports.
			l := fleet(t)
			edges := [][2]NodeID{{"A", "B"}}
			for _, id := range []NodeID{"A", "B"} {
				spec := BrokerSpec{ID: id, Edges: edges}
				if id == "B" {
					spec.Dial = map[NodeID]string{"A": l.nodes["A"].Addr()}
				}
				n, err := StartBroker(spec, WithMiddleware(probe))
				if err != nil {
					t.Fatal(err)
				}
				l.put(n)
			}
			waitReady(t, l.nodes["A"], l.nodes["B"])
			return l
		}},
	}
	for _, h := range hosts {
		h := h
		t.Run(h.name, func(t *testing.T) {
			probe := newOrderProbe()
			d := h.build(t, probe)
			defer d.Close()
			var got atomic.Int64
			c, p := d.NewClient("c"), d.NewClient("p")
			c.OnNotify(func(Notification) { got.Add(1) })
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			settleUntil := func(what string, cond func() bool) {
				t.Helper()
				eventually(t, 3*time.Second, what, func() bool {
					d.Settle()
					return cond()
				})
			}
			publish := func() uint64 {
				t.Helper()
				id, err := p.Publish(map[string]Value{"k": String("v")})
				must(err)
				return id.Seq
			}
			must(c.Connect("A"))
			must(p.Connect("B"))
			static := c.Subscribe(NewFilter(Eq("k", String("v"))))
			local := c.SubscribeAt(Eq("k", String("elsewhere")))
			d.Settle()

			// (iii) A connected client: the stage sees its subscription
			// pass and its delivery happen.
			first := publish()
			settleUntil("delivery to the connected client", func() bool { return got.Load() == 1 })
			if seen := probe.delivered("c"); len(seen) != 1 || seen[0] != first {
				t.Errorf("OnDeliver for connected c = %v, want [%d]", seen, first)
			}
			probe.mu.Lock()
			if !probe.subs[static.ID()] {
				t.Errorf("the stage never saw c's static subscription %s", static.ID())
			}
			// (i) …but not the location-dependent one the replicator claimed.
			if probe.subs[local.ID()] || probe.dynamic != 0 {
				t.Errorf("the stage saw a location-dependent subscription (%d) the replicator claims", probe.dynamic)
			}
			probe.mu.Unlock()

			// (ii) A ghost: the manager buffers, the stage sees no delivery.
			must(c.Disconnect())
			d.Settle()
			publish()
			d.Settle()
			if seen := probe.delivered("c"); len(seen) != 1 {
				t.Errorf("OnDeliver for ghost c = %v, want only the first", seen)
			}
			if got.Load() != 1 {
				t.Errorf("ghost c received %d notifications, want 1", got.Load())
			}

			// Relocation A → B: the buffered notification is replayed, and
			// the whole protocol stays in front of the stage.
			must(c.Connect("B"))
			settleUntil("replay after relocation", func() bool { return got.Load() == 2 })
			probe.mu.Lock()
			defer probe.mu.Unlock()
			for _, k := range []proto.Kind{proto.KConnect, proto.KRelocReq, proto.KRelocProfile, proto.KReplicaSub} {
				if n := probe.kinds[k]; n != 0 {
					t.Errorf("the stage saw %d %v messages a session layer consumes", n, k)
				}
			}
			if probe.kinds[proto.KPublish] == 0 {
				t.Error("the stage saw no KPublish at all: is it on the chain?")
			}
		})
	}
}

// TestMetricFamiliesSameOnEveryEntryPoint: what a scrape exposes depends on
// the options, not on whether NewLive or StartBroker assembled the broker.
// Only the client-side stream families differ — a Live has in-process
// client ports, a lone broker has none.
func TestMetricFamiliesSameOnEveryEntryPoint(t *testing.T) {
	g := NewGraph()
	g.AddEdge("A", "B")
	l, err := NewLive(WithMovement(g), WithOps("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n, err := StartBroker(BrokerSpec{ID: "A", Edges: [][2]NodeID{{"A", "B"}}}, WithOps("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(0)
	live, lone := metricFamilies(t, l.OpsAddr()), metricFamilies(t, n.OpsAddr())
	for name := range live {
		if strings.HasPrefix(name, "rebeca_stream_") {
			delete(live, name)
		}
	}
	var diff []string
	for name := range live {
		if !lone[name] {
			diff = append(diff, "only NewLive: "+name)
		}
	}
	for name := range lone {
		if !live[name] {
			diff = append(diff, "only StartBroker: "+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("family sets differ:\n%s", strings.Join(diff, "\n"))
	}
	for _, name := range []string{"rebeca_discovery_peers", "rebeca_discovery_events_total", "rebeca_spanning_tree_recomputations_total"} {
		if !live[name] {
			t.Errorf("NewLive on a plain tree lacks family %s", name)
		}
	}
}

// TestSystemServesLinkFamilies: the rebeca_link_* collectors are registered
// over every supervised overlay by the ops stack, so a virtual-clock System
// with a deployed overlay serves the families a live broker does — the
// spill ones too under WithLinkSpill.
func TestSystemServesLinkFamilies(t *testing.T) {
	link := []string{"rebeca_link_state", "rebeca_link_pending", "rebeca_link_dropped_total"}
	spill := []string{"rebeca_link_spill_depth", "rebeca_link_spill_bytes", "rebeca_link_spill_dropped_total"}
	for _, tc := range []struct {
		name         string
		opts         []Option
		want, absent []string
	}{
		{"heartbeat", nil, link, spill},
		{"spill", []Option{WithLinkSpill(NewMemoryStore(), 0)}, append(link, spill...), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(append(tc.opts, WithMovement(Line(2)), WithHeartbeat(100*time.Millisecond, 0), WithOps("127.0.0.1:0"))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Settle()
			fams := metricFamilies(t, s.OpsAddr())
			for _, name := range tc.want {
				if !fams[name] {
					t.Errorf("/metrics lacks family %s", name)
				}
			}
			for _, name := range tc.absent {
				if fams[name] {
					t.Errorf("/metrics serves %s without WithLinkSpill", name)
				}
			}
		})
	}
}

// mechanismSums scrapes one /metrics and sums every series of each
// mechanism family (rebeca_core_*, rebeca_mobility_*, rebeca_mesh_*) over
// the brokers.
func mechanismSums(t *testing.T, opsAddr string) map[string]float64 {
	t.Helper()
	sums := make(map[string]float64)
	for _, line := range strings.Split(httpGet(t, "http://"+opsAddr+"/metrics"), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "rebeca_core_") && !strings.HasPrefix(f[0], "rebeca_mobility_") &&
			!strings.HasPrefix(f[0], "rebeca_mesh_") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		name, _, _ := strings.Cut(f[0], "{")
		sums[name] += v
	}
	return sums
}

// TestMechanismFamiliesOnBothDeployments: one transparent handover with a
// k-note ghost backlog, on a System and on a Live deployment. Both serve
// every session-mechanism family with the same sums: one relocation that
// replayed the k notes.
func TestMechanismFamiliesOnBothDeployments(t *testing.T) {
	const k = 5
	relocations := telemetry.MechanismMetric(broker.MobilityRelocations)
	replayed := telemetry.MechanismMetric(broker.MobilityReplayed)
	builders := []struct {
		name  string
		build func(opts ...Option) (Deployment, string, error)
	}{
		// New's telemetry stage is a Metrics view the ops stack adopts,
		// so the view passes mechanism events on too.
		{"New", func(opts ...Option) (Deployment, string, error) {
			s, err := New(append(opts, WithMiddleware(NewMetrics()))...)
			if err != nil {
				return nil, "", err
			}
			return s, s.OpsAddr(), nil
		}},
		{"NewLive", func(opts ...Option) (Deployment, string, error) {
			l, err := NewLive(opts...)
			if err != nil {
				return nil, "", err
			}
			return l, l.OpsAddr(), nil
		}},
	}
	got := make([]string, len(builders))
	for i, b := range builders {
		d, opsAddr, err := b.build(WithMovement(Line(2)), WithOps("127.0.0.1:0"))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		defer d.Close()
		mob, pub := d.NewClient("mob"), d.NewClient("pub")
		mob.Subscribe(NewFilter(Eq("kind", String("a"))))
		for _, err := range []error{mob.Connect("B0"), pub.Connect("B1")} {
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
		}
		d.Settle()
		if err := mob.Disconnect(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		d.Settle()
		for n := 0; n < k; n++ {
			if _, err := pub.Publish(map[string]Value{"kind": String("a"), "n": Int(int64(n))}); err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
		}
		d.Settle()
		if err := mob.Connect("B1"); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		var sums map[string]float64
		eventually(t, 3*time.Second, b.name+": the handover counted", func() bool {
			d.Settle()
			sums = mechanismSums(t, opsAddr)
			return sums[relocations] == 1 && sums[replayed] == k
		})
		if len(sums) != int(broker.NumMechanisms) {
			t.Errorf("%s serves %d mechanism families, want %d: %v", b.name, len(sums), broker.NumMechanisms, sums)
		}
		got[i] = fmt.Sprint(sums) // map keys print sorted
	}
	if got[0] != got[1] {
		t.Errorf("mechanism sums differ:\nNew     %s\nNewLive %s", got[0], got[1])
	}
}

// TestHopTraceNeedsSomewhereToShowIt: stamping every hop of every publish is
// on only with an endpoint (/trace) to show the trace; logging alone leaves
// the publish path unstamped.
func TestHopTraceNeedsSomewhereToShowIt(t *testing.T) {
	builders := map[string]func(opts ...Option) (Deployment, *opsStack, error){
		"New": func(opts ...Option) (Deployment, *opsStack, error) {
			s, err := New(opts...)
			if err != nil {
				return nil, nil, err
			}
			return s, s.ops, nil
		},
		"NewLive": func(opts ...Option) (Deployment, *opsStack, error) {
			l, err := NewLive(opts...)
			if err != nil {
				return nil, nil, err
			}
			return l, l.ops, nil
		},
	}
	cases := []struct {
		name  string
		opt   Option
		trace bool
	}{
		{"logging only", WithLogging(io.Discard, "info"), false},
		{"ops", WithOps("127.0.0.1:0"), true},
	}
	for host, build := range builders {
		for _, tc := range cases {
			build, tc := build, tc
			t.Run(host+"/"+tc.name, func(t *testing.T) {
				d, ops, err := build(WithMovement(Line(2)), tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				if got := ops.mw.HopTraceEnabled(); got != tc.trace {
					t.Errorf("HopTraceEnabled() = %v, want %v", got, tc.trace)
				}
				var mu sync.Mutex
				var paths [][]message.HopStamp
				sub, pub := d.NewClient("sub"), d.NewClient("pub")
				sub.OnNotify(func(n Notification) {
					mu.Lock()
					paths = append(paths, n.Path)
					mu.Unlock()
				})
				if err := sub.Connect("B1"); err != nil {
					t.Fatal(err)
				}
				if err := pub.Connect("B0"); err != nil {
					t.Fatal(err)
				}
				sub.Subscribe(AllFilter())
				d.Settle()
				if _, err := pub.Publish(map[string]Value{"k": Int(1)}); err != nil {
					t.Fatal(err)
				}
				eventually(t, 3*time.Second, "the delivery", func() bool {
					d.Settle()
					mu.Lock()
					defer mu.Unlock()
					return len(paths) == 1
				})
				if stamped := len(paths[0]) > 0; stamped != tc.trace {
					t.Errorf("delivered hop path %v: stamped = %v, want %v", paths[0], stamped, tc.trace)
				}
			})
		}
	}
}

// TestRegistrySchemeRejected: the registry backends are file: and seed:;
// anything else — dns: was one once — is Open's unknown-scheme error,
// surfaced by the constructor.
func TestRegistrySchemeRejected(t *testing.T) {
	_, err := NewLive(WithMovement(Line(2)), WithRegistry("dns:_rebeca._tcp.example.com"))
	if want := `unknown registry scheme "dns" (want file or seed)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewLive under a dns: registry = %v, want an error containing %q", err, want)
	}
}

// clientOriginated reports whether a composite literal is a message only a
// client session sends: one with a Client field and one of the
// subscription or publish kinds.
func clientOriginated(lit *ast.CompositeLit) bool {
	var client, kind bool
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		switch key, _ := kv.Key.(*ast.Ident); {
		case key == nil:
		case key.Name == "Client":
			client = true
		case key.Name == "Kind":
			if sel, ok := kv.Value.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "KSubscribe", "KUnsubscribe", "KPublish", "KPublishBatch":
					kind = true
				}
			}
		}
	}
	return client && kind
}

// TestOneAssembly keeps the copies from growing back: the binary may not
// reach past the facade into the packages the node builder wires, the
// session layers are constructed in exactly one file, and the client
// session exists once — no file outside internal/client builds a
// client-originated message or mints a "/s%d" subscription ID.
func TestOneAssembly(t *testing.T) {
	banned := map[string]bool{}
	for _, pkg := range []string{"telemetry", "mobility", "core", "discovery", "overlay", "wire"} {
		banned[`"rebeca/internal/`+pkg+`"`] = true
	}
	mains, err := filepath.Glob("cmd/rebeca-broker/*.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("cmd/rebeca-broker/*.go: %v (%d files)", err, len(mains))
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if banned[imp.Path.Value] {
				t.Errorf("%s imports %s: assemble through rebeca.StartBroker instead", path, imp.Path.Value)
			}
		}
	}

	callers := map[string][]string{"core.New(": nil, "mobility.New(": nil}
	// The second push encodings, the second fold, the event-log ring and the
	// DNS backend went in PR 22; one telemetry pipeline stays one.
	// So did the side channels around the broker chain: link transitions,
	// drops and spans each have one way into telemetry. And the handover's
	// flush waves: the activate and tail ride the relocation path's FIFO.
	// The session layers' counter structs went too: their events reach
	// the simulator, the tests and /metrics through the chain. And the
	// second and third dedup structures: internal/dedup is the one window.
	// And the push exporter with its span encoding and ingest endpoint: the
	// collector scrapes the endpoints the registry lists.
	gone := []string{"RemoteWrite", "PushFormat", "pushFormat", "snapshotJSON", "ingestJSON", "foldCounterDel",
		"ParseLabelKey", "NewDNSRegistry", "SRVLookup", "tracerCap", "MetricTracerDropped",
		"WithLinkObserver", "SetDropHook", "dropHook",
		"StartFlush", "FlushObserver", "OnFlushDone", "flushCont", "FlushID",
		"ReplicatorStats", "DedupSet", "seenSet", "seenCap",
		"Pusher", "WithOpsPush", "SpanExport", "EncodeSpanBatch", "ContentTypeSpans", "InstanceHeader", "handleIngest"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if filepath.Dir(path) != filepath.Join("internal", "client") {
			f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if filepath.Dir(path) == filepath.Join("internal", "wire") && imp.Path.Value == `"rebeca/internal/telemetry"` {
					t.Errorf("%s imports internal/telemetry: instruments are built by opsStack (ops.go)", path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if clientOriginated(n) {
						t.Errorf("%s builds a client-originated message: send it through a client.Client", path)
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING && strings.Contains(n.Value, "/s%d") {
						t.Errorf("%s mints a subscription ID: client.Client.NewSubID is the one place", path)
					}
				}
				return true
			})
		}
		for _, line := range strings.Split(string(src), "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			for call := range callers {
				if strings.Contains(line, call) {
					callers[call] = append(callers[call], filepath.ToSlash(path))
				}
			}
			for _, name := range gone {
				if strings.Contains(line, name) {
					t.Errorf("%s mentions %s, which was deleted for good", path, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for call, files := range callers {
		if len(files) != 1 || files[0] != "internal/session/session.go" {
			t.Errorf("%s is called in %v; want only internal/session/session.go", call, files)
		}
	}
}
