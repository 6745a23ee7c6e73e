package rebeca_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"rebeca"
)

// The option conformance table: every exported Option and SubOption proves
// itself through a Port on both deployments. A row runs its script twice on
// each host — with the option and without it — and names what the script
// observes each time. Where an option applies, the two observations differ
// the way its doc says; where a host ignores it, the row requires the same
// observation with and without it (New and NewLive are swappable under one
// option list); where a host refuses it, the build error is the observation.

// optionHost is one way to build a deployment from options.
type optionHost struct {
	name  string
	build func(opts ...rebeca.Option) (rebeca.Deployment, error)
	// wait lets dur pass: the virtual clock steps, a live deployment sleeps.
	wait func(d rebeca.Deployment, dur time.Duration)
}

var optionHosts = []optionHost{
	{"sim",
		func(opts ...rebeca.Option) (rebeca.Deployment, error) { return rebeca.New(opts...) },
		func(d rebeca.Deployment, dur time.Duration) { d.(*rebeca.System).Step(dur) }},
	{"live",
		func(opts ...rebeca.Option) (rebeca.Deployment, error) { return rebeca.NewLive(opts...) },
		func(_ rebeca.Deployment, dur time.Duration) { time.Sleep(dur) }},
}

// optionRun is one execution of a row's script on one host: the deployment,
// and the fixtures a row's options and its script share.
type optionRun struct {
	t       *testing.T
	host    optionHost
	d       rebeca.Deployment
	sub     []rebeca.SubOption // the row's SubOption, on the run that applies it
	log     *syncWriter        // a WithLogging sink
	metrics *rebeca.Metrics    // a Metrics view on the chain
}

// outcome is what a row's script observes on one host with the option and
// without it. same as the with-observation means the host ignores the
// option; a "refused: " observation is a build error containing the rest.
type outcome struct{ with, without string }

const same = "(same as without)"

// optionRow proves one exported option.
type optionRow struct {
	option string // the exported constructor the row proves
	// ctx adds what the script needs besides the option under test, on
	// both runs (nil: nothing).
	ctx func(r *optionRun) []rebeca.Option
	// opt builds the deployment option under test; sub is the SubOption
	// under test instead.
	opt       func(r *optionRun) rebeca.Option
	sub       rebeca.SubOption
	script    func(r *optionRun) string
	sim, live outcome
}

func optionRows() []optionRow {
	menu := rebeca.Eq("service", rebeca.String("menu"))
	at := func(attr, v string) map[string]rebeca.Value {
		return map[string]rebeca.Value{"service": rebeca.String("menu"), attr: rebeca.String(v)}
	}
	atB1 := replay(rebeca.AtLocation(menu), at(rebeca.AttrLocation, "region-B1"))
	const (
		replayedAll  = "at B0 [], at B1 [1 2 3 4 5]"
		replayedNone = "at B0 [], at B1 []"
	)
	heartbeat := func(*optionRun) []rebeca.Option {
		return []rebeca.Option{rebeca.WithHeartbeat(50*time.Millisecond, 200*time.Millisecond)}
	}
	ops := func(*optionRun) []rebeca.Option { return []rebeca.Option{rebeca.WithOps("127.0.0.1:0")} }
	ring := func(r *optionRun) []rebeca.Option {
		return append(heartbeat(r), rebeca.WithMovement(rebeca.Ring(4)))
	}
	const (
		ringLinks = "links [B0-B1 B0-B3 B1-B2 B2-B3], delivered [1 2 3]"
		treeLinks = "links [B0-B1 B0-B3 B1-B2], delivered [1 2 3]"
	)
	return []optionRow{
		// The replicator's neighborhood is the movement graph's: on the
		// line B0-B2-B1, B1 is no neighbor of B0 and holds no replica.
		{option: "WithMovement", script: atB1,
			opt: func(*optionRun) rebeca.Option {
				return rebeca.WithMovement(rebeca.NewGraph().AddEdge("B0", "B2").AddEdge("B2", "B1"))
			},
			sim:  outcome{replayedNone, replayedAll},
			live: outcome{replayedNone, replayedAll}},
		// myloc resolves through the location model: "plaza" is B1's
		// scope only under the model given.
		{option: "WithLocations",
			script: replay(rebeca.AtLocation(menu), at(rebeca.AttrLocation, "plaza")),
			opt: func(*optionRun) rebeca.Option {
				return rebeca.WithLocations(rebeca.NewLocationModel().
					Assign("B0", "hall").Assign("B1", "plaza").Assign("B2", "dock"))
			},
			sim:  outcome{replayedAll, replayedNone},
			live: outcome{replayedAll, replayedNone}},
		{option: "WithReactiveBaseline", script: atB1,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithReactiveBaseline() },
			sim:  outcome{replayedNone, replayedAll},
			live: outcome{replayedNone, replayedAll}},
		// network ∈ ctx:mynet resolves to the border's cell; unresolved,
		// the marker matches nothing.
		{option: "WithContextResolver",
			script: replay(rebeca.NewFilter(menu, rebeca.Context("network", "mynet")), at("network", "cell-B1")),
			opt: func(*optionRun) rebeca.Option {
				return rebeca.WithContextResolver(func(b rebeca.NodeID) rebeca.ContextResolverFunc {
					return func(attr, name string) []rebeca.Value {
						if attr == "network" && name == "mynet" {
							return []rebeca.Value{rebeca.String("cell-" + string(b))}
						}
						return nil
					}
				})
			},
			sim:  outcome{replayedAll, replayedNone},
			live: outcome{replayedAll, replayedNone}},
		{option: "WithBufferTTL", script: atB1,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithBufferTTL(time.Millisecond) },
			sim:  outcome{replayedNone, replayedAll},
			live: outcome{replayedNone, replayedAll}},
		{option: "WithBufferCap", script: atB1,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithBufferCap(2) },
			sim:  outcome{"at B0 [], at B1 [4 5]", replayedAll},
			live: outcome{"at B0 [], at B1 [4 5]", replayedAll}},
		// Four hops (client, two links, client) at 20ms instead of 1ms;
		// real TCP links have real latency.
		{option: "WithLinkLatency", script: deliver(),
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithLinkLatency(20 * time.Millisecond) },
			sim:  outcome{"[1 2 3 4 5] dropped 0 in 80ms", "[1 2 3 4 5] dropped 0 in 4ms"},
			live: outcome{same, "[1 2 3 4 5] dropped 0"}},
		// A stage on every broker: a token bucket of 2 at the ingress.
		{option: "WithMiddleware", script: deliver(),
			opt: func(*optionRun) rebeca.Option {
				return rebeca.WithMiddleware(rebeca.NewRateLimiter(0.001, 2))
			},
			sim:  outcome{"[1 2] dropped 0 in 4ms", "[1 2 3 4 5] dropped 0 in 4ms"},
			live: outcome{"[1 2] dropped 0", "[1 2 3 4 5] dropped 0"}},
		{option: "WithStreamBuffer", script: deliver(),
			sub:  rebeca.WithStreamBuffer(2),
			sim:  outcome{"[4 5] dropped 3 in 4ms", "[1 2 3 4 5] dropped 0 in 4ms"},
			live: outcome{"[4 5] dropped 3", "[1 2 3 4 5] dropped 0"}},
		{option: "WithOverflow", script: deliver(rebeca.WithStreamBuffer(2)),
			sub:  rebeca.WithOverflow(rebeca.DropNewest),
			sim:  outcome{"[1 2] dropped 3 in 4ms", "[4 5] dropped 3 in 4ms"},
			live: outcome{"[1 2] dropped 3", "[4 5] dropped 3"}},
		{option: "Durable", script: resubscribe,
			sub:  rebeca.Durable("inbox"),
			sim:  outcome{"ids [mob/d:inbox mob/d:inbox], first closed", "ids [mob/s1 mob/s2], first open"},
			live: outcome{"ids [mob/d:inbox mob/d:inbox], first closed", "ids [mob/s1 mob/s2], first open"}},
		// A restarted publisher continues its persisted sequence space;
		// without a store it starts again and aliases its first note.
		{option: "WithDurable", script: restart,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithDurable(rebeca.NewMemoryStore()) },
			sim:  outcome{"ids [pub#1 pub#257], received [1 2], duplicates 0", "ids [pub#1 pub#1], received [1], duplicates 1"},
			live: outcome{"ids [pub#1 pub#257], received [1 2], duplicates 0", "ids [pub#1 pub#1], received [1], duplicates 1"}},
		// New deploys the overlay only under the option; NewLive always
		// supervises its links, and the option retunes them.
		{option: "WithHeartbeat", script: linkCycle, ctx: ops,
			opt: func(*optionRun) rebeca.Option {
				return rebeca.WithHeartbeat(50*time.Millisecond, 150*time.Millisecond)
			},
			sim:  outcome{"heartbeat 50ms,150ms, cut: down, healed: established", "heartbeat none, cut: " + rebeca.ErrNoOverlay.Error()},
			live: outcome{"heartbeat 50ms,150ms, cut: down, healed: established", "heartbeat 1s,3s, cut: down, healed: established"}},
		// Ten notes into a cut link: the pending queue keeps the newest
		// cap, the spill keeps everything.
		{option: "WithLinkPendingCap", script: partition, ctx: heartbeat,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithLinkPendingCap(2) },
			sim:  outcome{"[9 10]", "[1 2 3 4 5 6 7 8 9 10]"},
			live: outcome{"[9 10]", "[1 2 3 4 5 6 7 8 9 10]"}},
		{option: "WithLinkSpill", script: partition,
			ctx: func(r *optionRun) []rebeca.Option {
				return append(heartbeat(r), rebeca.WithLinkPendingCap(2))
			},
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithLinkSpill(rebeca.NewMemoryStore(), 0) },
			sim:  outcome{"[1 2 3 4 5 6 7 8 9 10]", "[9 10]"},
			live: outcome{"[1 2 3 4 5 6 7 8 9 10]", "[9 10]"}},
		// The overlay is the ring itself rather than its spanning tree;
		// NewLive refuses a cyclic graph without it.
		{option: "WithMeshRouting", script: links, ctx: ring,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithMeshRouting() },
			sim:  outcome{ringLinks, treeLinks},
			live: outcome{ringLinks, "refused: needs a tree movement graph"}},
		// Registry membership implies mesh routing; the virtual clock has
		// no transport for a registry to point at.
		{option: "WithRegistry", script: links, ctx: ring,
			opt: func(r *optionRun) rebeca.Option {
				return rebeca.WithRegistry("file:" + filepath.Join(r.t.TempDir(), "peers.json"))
			},
			sim:  outcome{"refused: needs a live deployment", treeLinks},
			live: outcome{ringLinks, "refused: needs a tree movement graph"}},
		{option: "WithOps", script: scrape,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithOps("127.0.0.1:0") },
			sim:  outcome{"deliveries 5, traces 5", "no endpoint"},
			live: outcome{"deliveries 5, traces 5", "no endpoint"}},
		{option: "WithTraceSampling", script: scrape, ctx: ops,
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithTraceSampling(1<<30, 0) },
			sim:  outcome{"deliveries 5, traces 0", "deliveries 5, traces 5"},
			live: outcome{"deliveries 5, traces 0", "deliveries 5, traces 5"}},
		{option: "WithLogging", script: logged,
			ctx: func(r *optionRun) []rebeca.Option {
				r.log = &syncWriter{}
				return heartbeat(r)
			},
			opt:  func(r *optionRun) rebeca.Option { return rebeca.WithLogging(r.log, "info") },
			sim:  outcome{"overlay: link established", "overlay: silent"},
			live: outcome{"overlay: link established", "overlay: silent"}},
		// A Block stream nobody reads yet: a live border hands out at most
		// the window ahead of the consumer. The virtual clock has no
		// transport to flow control.
		{option: "WithDeliveryWindow", script: backpressure,
			ctx: func(r *optionRun) []rebeca.Option {
				r.metrics = rebeca.NewMetrics()
				return []rebeca.Option{rebeca.WithMiddleware(r.metrics)}
			},
			opt:  func(*optionRun) rebeca.Option { return rebeca.WithDeliveryWindow(4) },
			sim:  outcome{same, "held back: false, consumed 30"},
			live: outcome{"held back: true, consumed 30", "held back: false, consumed 30"}},
		// Settle on a quiet deployment: a live one waits out the quiet
		// window, the virtual clock's is exact.
		{option: "WithSettleWindow", script: settle,
			opt: func(*optionRun) rebeca.Option {
				return rebeca.WithSettleWindow(500*time.Millisecond, 2*time.Second)
			},
			sim:  outcome{same, "settle waited 400ms: false"},
			live: outcome{"settle waited 400ms: true", "settle waited 400ms: false"}},
	}
}

// TestOptionApplication runs every row of the table on both hosts, each
// host with and without the row's option.
func TestOptionApplication(t *testing.T) {
	for _, row := range optionRows() {
		t.Run(row.option, func(t *testing.T) {
			for _, h := range optionHosts {
				want := row.sim
				if h.name == "live" {
					want = row.live
				}
				t.Run(h.name, func(t *testing.T) {
					without := row.observe(t, h, false)
					if !observed(without, want.without) {
						t.Errorf("without %s: observed %q, want %q", row.option, without, want.without)
					}
					with := row.observe(t, h, true)
					wantWith := want.with
					if wantWith == same {
						wantWith = without
					}
					if !observed(with, wantWith) {
						t.Errorf("with %s: observed %q, want %q", row.option, with, wantWith)
					}
				})
			}
		})
	}
}

// observe builds the row's deployment on h — a Line(3) unless the row says
// otherwise — with or without the option under test, and runs its script.
func (row optionRow) observe(t *testing.T, h optionHost, with bool) string {
	t.Helper()
	r := &optionRun{t: t, host: h}
	opts := []rebeca.Option{rebeca.WithMovement(rebeca.Line(3))}
	if row.ctx != nil {
		opts = append(opts, row.ctx(r)...)
	}
	if with && row.opt != nil {
		opts = append(opts, row.opt(r))
	}
	if with && row.sub != nil {
		r.sub = []rebeca.SubOption{row.sub}
	}
	d, err := h.build(opts...)
	if err != nil {
		return "refused: " + err.Error()
	}
	defer d.Close()
	r.d = d
	return row.script(r)
}

// observed matches an observation: a refusal by the substring its error
// must contain, anything else exactly.
func observed(got, want string) bool {
	if rest, ok := strings.CutPrefix(want, "refused: "); ok {
		return strings.HasPrefix(got, "refused: ") && strings.Contains(got, rest)
	}
	return got == want
}

func (r *optionRun) connect(p rebeca.Port, b rebeca.NodeID) {
	r.t.Helper()
	if err := p.Connect(b); err != nil {
		r.t.Fatalf("%s: connect %s to %s: %v", r.host.name, p.ID(), b, err)
	}
}

func (r *optionRun) publish(p rebeca.Port, attrs map[string]rebeca.Value, lo, hi int) {
	r.t.Helper()
	for n := lo; n <= hi; n++ {
		note := map[string]rebeca.Value{"n": rebeca.Int(int64(n))}
		for k, v := range attrs {
			note[k] = v
		}
		if _, err := p.Publish(note); err != nil {
			r.t.Fatalf("%s: publish: %v", r.host.name, err)
		}
	}
}

// opsAddr is the deployment's ops endpoint ("" without one).
func (r *optionRun) opsAddr() string {
	return r.d.(interface{ OpsAddr() string }).OpsAddr()
}

// replay is the logical-mobility probe: mob subscribes f at B0, pub at B1
// publishes five notes carrying attrs, and mob moves to B1. It observes
// mob's stream before and after the move.
func replay(f rebeca.Filter, attrs map[string]rebeca.Value) func(r *optionRun) string {
	return func(r *optionRun) string {
		mob, pub := r.d.NewClient("mob"), r.d.NewClient("pub")
		r.connect(mob, "B0")
		s := &streamLog{s: mob.Subscribe(f, rebeca.WithStreamBuffer(16))}
		r.connect(pub, "B1")
		r.d.Settle()
		r.publish(pub, attrs, 1, 5)
		r.d.Settle()
		before := s.String()
		if err := mob.Disconnect(); err != nil {
			r.t.Fatal(err)
		}
		r.host.wait(r.d, 5*time.Millisecond)
		r.connect(mob, "B1")
		r.d.Settle()
		s.received(r.t)
		return fmt.Sprintf("at B0 %s, at B1 %s", before, s)
	}
}

// deliver publishes five notes from B2 to a subscriber at B0 whose stream
// (base options, then the row's SubOption) nobody reads until the
// deployment settles. It observes what the stream kept and dropped and, on
// the virtual clock, how long publish to settle took.
func deliver(base ...rebeca.SubOption) func(r *optionRun) string {
	return func(r *optionRun) string {
		sub, pub := r.d.NewClient("sub"), r.d.NewClient("pub")
		r.connect(sub, "B0")
		s := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")), append(base, r.sub...)...)}
		r.connect(pub, "B2")
		r.d.Settle()
		sys, virtual := r.d.(*rebeca.System)
		var t0 time.Time
		if virtual {
			t0 = sys.Now()
		}
		r.publish(pub, nil, 1, 5)
		r.d.Settle()
		obs := fmt.Sprintf("%s dropped %d", s, s.s.Stats().Dropped)
		if virtual {
			obs += fmt.Sprintf(" in %s", sys.Now().Sub(t0))
		}
		return obs
	}
}

// resubscribe subscribes twice on one port with the row's SubOption and
// observes the two IDs and whether the second handle closed the first.
func resubscribe(r *optionRun) string {
	mob := r.d.NewClient("mob")
	r.connect(mob, "B0")
	f := rebeca.NewFilter(rebeca.Exists("n"))
	first := &streamLog{s: mob.Subscribe(f, r.sub...)}
	second := mob.Subscribe(f, r.sub...)
	r.d.Settle()
	first.drain()
	state := "open"
	if first.closed {
		state = "closed"
	}
	return fmt.Sprintf("ids [%s %s], first %s", first.s.ID(), second.ID(), state)
}

// restart publishes one note, replaces the publisher with a new port under
// the same ID — a restarted process — and publishes again. It observes the
// IDs the two incarnations minted, the subscriber's stream and its
// suppressed duplicates.
func restart(r *optionRun) string {
	sub := r.d.NewClient("sub")
	r.connect(sub, "B0")
	s := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")))}
	var ids []string
	for n := 1; n <= 2; n++ {
		pub := r.d.NewClient("pub")
		r.connect(pub, "B2")
		r.d.Settle()
		id, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(n))})
		if err != nil {
			r.t.Fatal(err)
		}
		ids = append(ids, id.String())
		r.d.Settle()
		if err := pub.Disconnect(); err != nil {
			r.t.Fatal(err)
		}
		r.d.Settle()
	}
	s.received(r.t)
	return fmt.Sprintf("ids %v, received %s, duplicates %d", ids, s, sub.Duplicates())
}

// linkCycle reads the heartbeat knob, cuts the B0-B1 link and heals it. It
// observes the knob and the link's state after each step.
func linkCycle(r *optionRun) string {
	hb := "none"
	if v, ok := configKnobs(r.t, r.opsAddr())["heartbeat"]; ok {
		hb = v
	}
	chaos := r.d.(linkChaos)
	if err := chaos.CutLink("B0", "B1"); err != nil {
		return fmt.Sprintf("heartbeat %s, cut: %v", hb, err)
	}
	r.host.wait(r.d, 500*time.Millisecond)
	cut := "down"
	if chaos.LinkStates("B0")["B1"] == rebeca.LinkEstablished {
		cut = "established"
	}
	if err := chaos.HealLink("B0", "B1"); err != nil {
		r.t.Fatal(err)
	}
	healed := "down"
	for i := 0; i < 100 && healed == "down"; i++ {
		r.host.wait(r.d, 50*time.Millisecond)
		if chaos.LinkStates("B0")["B1"] == rebeca.LinkEstablished && chaos.LinkStates("B1")["B0"] == rebeca.LinkEstablished {
			healed = "established"
		}
	}
	return fmt.Sprintf("heartbeat %s, cut: %s, healed: %s", hb, cut, healed)
}

// partition cuts the B1-B2 link, publishes ten notes from B2 into the cut,
// heals it and observes what the subscriber at B0 receives.
func partition(r *optionRun) string {
	sub, pub := r.d.NewClient("sub"), r.d.NewClient("pub")
	r.connect(sub, "B0")
	s := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")), rebeca.WithStreamBuffer(64))}
	r.connect(pub, "B2")
	r.d.Settle()
	chaos := r.d.(linkChaos)
	if err := chaos.CutLink("B1", "B2"); err != nil {
		r.t.Fatal(err)
	}
	r.host.wait(r.d, 300*time.Millisecond)
	r.publish(pub, nil, 1, 10)
	r.host.wait(r.d, 100*time.Millisecond)
	if err := chaos.HealLink("B1", "B2"); err != nil {
		r.t.Fatal(err)
	}
	// Done once the link is back and the stream has everything, or has
	// stopped growing.
	for i, prev := 0, -1; i < 100; i++ {
		r.host.wait(r.d, 50*time.Millisecond)
		r.d.Settle()
		n := len(s.drain())
		if chaos.LinkStates("B2")["B1"] == rebeca.LinkEstablished && (n == 10 || n > 0 && n == prev) {
			break
		}
		prev = n
	}
	s.received(r.t)
	return s.String()
}

// links waits for the overlay to establish, publishes three notes from B2
// to a subscriber at B0 and observes the established links and the
// deliveries.
func links(r *optionRun) string {
	chaos := r.d.(linkChaos)
	established := func() []string {
		var out []string
		for _, b := range r.d.Brokers() {
			for p, st := range chaos.LinkStates(b) {
				if st == rebeca.LinkEstablished && b < p {
					out = append(out, string(b)+"-"+string(p))
				}
			}
		}
		sort.Strings(out)
		return out
	}
	// Registry membership links brokers as they discover each other: wait
	// until the link set stops growing.
	var ls []string
	for i, stable := 0, 0; i < 100 && stable < 5; i++ {
		r.host.wait(r.d, 50*time.Millisecond)
		cur := established()
		if fmt.Sprint(cur) == fmt.Sprint(ls) && len(cur) > 0 {
			stable++
		} else {
			stable = 0
		}
		ls = cur
	}
	sub, pub := r.d.NewClient("sub"), r.d.NewClient("pub")
	r.connect(sub, "B0")
	s := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")))}
	r.connect(pub, "B2")
	r.d.Settle()
	r.publish(pub, nil, 1, 3)
	r.d.Settle()
	s.received(r.t)
	return fmt.Sprintf("links %v, delivered %s", ls, s)
}

// scrape delivers five notes and reads the ops endpoint, if there is one:
// the deliveries /metrics counted and the traces /trace retained.
func scrape(r *optionRun) string {
	deliver()(r)
	addr := r.opsAddr()
	if addr == "" {
		return "no endpoint"
	}
	_, metrics := opsGet(r.t, addr, "/metrics")
	_, body := opsGet(r.t, addr, "/trace")
	var listing struct {
		Retained int `json:"retained"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		r.t.Fatalf("/trace: %v: %s", err, body)
	}
	return fmt.Sprintf("deliveries %g, traces %d", metricTotal(metrics, "rebeca_deliveries_total"), listing.Retained)
}

// logged settles the deployment and observes whether the overlay logged
// its links coming up.
func logged(r *optionRun) string {
	r.d.Settle()
	r.host.wait(r.d, 100*time.Millisecond)
	for _, line := range strings.Split(r.log.String(), "\n") {
		if strings.Contains(line, "subsystem=overlay") && strings.Contains(line, "link established") {
			return "overlay: link established"
		}
	}
	return "overlay: silent"
}

// backpressure publishes 30 notes to a Block stream of one slot whose
// consumer starts 300ms later. It observes whether the border had held
// deliveries back by then, and how many the consumer got.
func backpressure(r *optionRun) string {
	sub, pub := r.d.NewClient("sub"), r.d.NewClient("pub")
	r.connect(sub, "B0")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")),
		rebeca.WithStreamBuffer(1), rebeca.WithOverflow(rebeca.Block))
	r.connect(pub, "B1")
	r.d.Settle()
	r.publish(pub, nil, 1, 30)
	var handed int
	consumed := make(chan int, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		handed = r.metrics.Totals().Deliveries
		n := 0
		for range s.Events() {
			if n++; n == 30 {
				break
			}
		}
		consumed <- n
	}()
	// Under System the deliveries run inside Settle, each Block push
	// waiting for the consumer; under Live, Settle waits for it too.
	r.d.Settle()
	select {
	case n := <-consumed:
		return fmt.Sprintf("held back: %v, consumed %d", handed < 30, n)
	case <-time.After(10 * time.Second):
		return "consumer stalled"
	}
}

// settle times one Settle of a quiet deployment.
func settle(r *optionRun) string {
	r.d.Settle()
	start := time.Now()
	r.d.Settle()
	return fmt.Sprintf("settle waited 400ms: %v", time.Since(start) >= 400*time.Millisecond)
}

// configKnobs reads /config's knob values (none without an endpoint).
func configKnobs(t *testing.T, addr string) map[string]string {
	out := make(map[string]string)
	if addr == "" {
		return out
	}
	_, body := opsGet(t, addr, "/config")
	var knobs map[string]struct {
		Value string `json:"value"`
	}
	if err := json.Unmarshal([]byte(body), &knobs); err != nil {
		t.Fatalf("/config: %v: %s", err, body)
	}
	for name, k := range knobs {
		out[name] = k.Value
	}
	return out
}

// metricTotal sums one family's samples in a Prometheus text exposition.
func metricTotal(exposition, family string) float64 {
	total := 0.0
	for _, line := range strings.Split(exposition, "\n") {
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		if name != family {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// TestOptionTableComplete parses the package's non-test files and requires
// one row for every exported function that returns an Option or a
// SubOption — an option without a row fails here.
func TestOptionTableComplete(t *testing.T) {
	rows := make(map[string]bool)
	for _, row := range optionRows() {
		if rows[row.option] {
			t.Errorf("two rows for %s", row.option)
		}
		rows[row.option] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	exported := make(map[string]bool)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "Option" || id.Name == "SubOption") {
				exported[fn.Name.Name] = true
				if !rows[fn.Name.Name] {
					t.Errorf("%s (%s) has no row in the option conformance table", fn.Name.Name, fset.Position(fn.Pos()))
				}
			}
		}
	}
	for name := range rows {
		if !exported[name] {
			t.Errorf("row %s names no exported option", name)
		}
	}
}
