package collector

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rebeca/internal/discovery"
	"rebeca/internal/message"
	"rebeca/internal/telemetry"
)

// staticRegistry is a registry the test edits directly: Discover returns
// its entries, nothing else is needed by a collector.
type staticRegistry struct {
	mu      sync.Mutex
	entries []discovery.Entry
}

func (r *staticRegistry) Register(e discovery.Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
	return nil
}

func (r *staticRegistry) Deregister(id message.NodeID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.entries[:0]
	for _, e := range r.entries {
		if e.ID != id {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	return nil
}

func (r *staticRegistry) Discover() ([]discovery.Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]discovery.Entry(nil), r.entries...), nil
}

func (r *staticRegistry) Watch(func([]discovery.Entry)) func() { return func() {} }
func (r *staticRegistry) Close() error                         { return nil }

// fakeBroker is one ops endpoint as the collector scrapes it.
type fakeBroker struct {
	srv *httptest.Server

	mu      sync.Mutex
	metrics []byte                // the /metrics body
	spans   []telemetry.TraceSpan // served on every /trace read, whatever the cursor
	store   *telemetry.SpanStore  // when set, /trace is a real ops endpoint over it
	status  map[string]int        // path -> forced error status
}

func (fb *fakeBroker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fb.mu.Lock()
	metrics, spans, store, code := fb.metrics, fb.spans, fb.store, fb.status[r.URL.Path]
	fb.mu.Unlock()
	switch {
	case code != 0:
		http.Error(w, "forced failure", code)
	case r.URL.Path == "/metrics":
		_, _ = w.Write(metrics)
	case store != nil:
		telemetry.NewOps(telemetry.NewRegistry(), store).Handler().ServeHTTP(w, r)
	default:
		_ = json.NewEncoder(w).Encode(telemetry.TraceExport{Start: 1, Spans: spans})
	}
}

func (fb *fakeBroker) set(fn func(fb *fakeBroker)) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fn(fb)
}

// rig is a collector over a registry of fake brokers. Each serve call
// changes what one instance serves and runs one scrape round, which reads
// every registered instance — an unchanged one serves the same again.
type rig struct {
	t       *testing.T
	c       *Collector
	reg     *staticRegistry
	brokers map[string]*fakeBroker
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	reg := &staticRegistry{}
	cfg.Registry = reg
	return &rig{t: t, c: New(cfg), reg: reg, brokers: make(map[string]*fakeBroker)}
}

// broker returns the fake endpoint of instance, registering it on first
// use: "A,B" registers brokers A and B with one shared ops address.
func (r *rig) broker(instance string) *fakeBroker {
	if fb, ok := r.brokers[instance]; ok {
		return fb
	}
	fb := &fakeBroker{status: make(map[string]int)}
	fb.srv = httptest.NewServer(fb)
	r.t.Cleanup(fb.srv.Close)
	for _, id := range strings.Split(instance, ",") {
		_ = r.reg.Register(discovery.Entry{ID: message.NodeID(id), Ops: fb.srv.Listener.Addr().String()})
	}
	r.brokers[instance] = fb
	return fb
}

// serveMetrics makes instance serve body on /metrics and scrapes.
func (r *rig) serveMetrics(instance string, body []byte) {
	r.broker(instance).set(func(fb *fakeBroker) { fb.metrics = body })
	r.c.Scrape()
}

// serveSpans makes instance serve spans on /trace and scrapes.
func (r *rig) serveSpans(instance string, spans ...telemetry.TraceSpan) {
	r.broker(instance).set(func(fb *fakeBroker) { fb.spans = spans })
	r.c.Scrape()
}

func (r *rig) get(method, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r.c.Handler().ServeHTTP(w, httptest.NewRequest(method, path, nil))
	return w
}

func (r *rig) getJSON(path string, into any) int {
	r.t.Helper()
	w := r.get("GET", path)
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
			r.t.Fatalf("GET %s: decode: %v\n%s", path, err, w.Body)
		}
	}
	return w.Code
}

func (r *rig) fleet() FleetStatus {
	var f FleetStatus
	r.getJSON("/fleet", &f)
	return f
}

func span(note string, latencyMS float64, hops ...telemetry.TraceHop) telemetry.TraceSpan {
	for i := range hops {
		hops[i].Hop = i
	}
	return telemetry.TraceSpan{Note: note, LatencyMS: latencyMS, Hops: hops}
}

// TestTraceAssemblyAdversity drives the assembly through the failure
// modes a real fleet produces — repeated reads, out-of-order arrival,
// partial paths — and requires an idempotent, hop-timestamp-ordered
// result.
func TestTraceAssemblyAdversity(t *testing.T) {
	r := newRig(t, Config{})
	t0 := time.Unix(1700000000, 0).UTC()
	// The delivering broker B serves the full trail, transit broker A only
	// its prefix — and B's full trail is read before A's prefix.
	full := span("pub#1", 2.5, telemetry.TraceHop{Broker: "A", At: t0}, telemetry.TraceHop{Broker: "B", At: t0.Add(2 * time.Millisecond)})
	prefix := span("pub#1", 0, telemetry.TraceHop{Broker: "A", At: t0})
	r.serveSpans("B", full)
	r.serveSpans("A", prefix)
	// Repeated reads of the same spans (every round re-reads B's here).
	r.serveSpans("A", prefix, prefix)

	var tr AssembledTrace
	if code := r.getJSON("/trace?note=pub%231", &tr); code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	if len(tr.Hops) != 2 {
		t.Fatalf("assembled %d hops, want 2 (duplicates must merge): %+v", len(tr.Hops), tr.Hops)
	}
	if tr.Hops[0].Broker != "A" || tr.Hops[1].Broker != "B" {
		t.Fatalf("hops out of stamp order: %+v", tr.Hops)
	}
	for i, h := range tr.Hops {
		if h.Hop != i {
			t.Fatalf("hop index %d = %d", i, h.Hop)
		}
		if i > 0 && h.At.Before(tr.Hops[i-1].At) {
			t.Fatalf("hop timestamps not monotone: %+v", tr.Hops)
		}
	}
	if tr.Partial {
		t.Fatalf("both hop brokers reported; trace marked partial: %+v", tr)
	}
	if tr.LatencyMS != 2.5 {
		t.Fatalf("latency = %v, want 2.5", tr.LatencyMS)
	}
	if len(tr.Reporters) != 2 {
		t.Fatalf("reporters = %v, want [A B]", tr.Reporters)
	}
	if r.c.TraceCount() != 1 {
		t.Fatalf("TraceCount = %d, want 1", r.c.TraceCount())
	}

	// Partial path: a hop names broker C, but C has not reported the span
	// — the assembled view cannot be assumed complete.
	r.serveSpans("A", span("pub#2", 0, telemetry.TraceHop{Broker: "A", At: t0}, telemetry.TraceHop{Broker: "C", At: t0.Add(time.Millisecond)}))
	var tr2 AssembledTrace
	if code := r.getJSON("/trace?note=pub%232", &tr2); code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	if !tr2.Partial {
		t.Fatalf("hop broker C never reported; trace not marked partial: %+v", tr2)
	}
	// ...until C's span is read, which completes it.
	r.serveSpans("C", span("pub#2", 0, telemetry.TraceHop{Broker: "C", At: t0.Add(time.Millisecond)}))
	if r.getJSON("/trace?note=pub%232", &tr2); tr2.Partial {
		t.Fatalf("all brokers reported; still partial: %+v", tr2)
	}

	// An instance of brokers sharing one endpoint ("D,E" — an in-process
	// deployment) covers every broker it joins.
	r.serveSpans("D,E", span("pub#3", 0, telemetry.TraceHop{Broker: "D", At: t0}, telemetry.TraceHop{Broker: "E", At: t0.Add(time.Millisecond)}))
	var tr3 AssembledTrace
	r.getJSON("/trace?note=pub%233", &tr3)
	if tr3.Partial || len(tr3.Hops) != 2 {
		t.Fatalf("shared-endpoint trace: %+v", tr3)
	}

	// Reason-only retro-capture records (no hops yet) assemble too and
	// read as partial.
	r.serveSpans("A", telemetry.TraceSpan{Note: "pub#4", Reason: "rate-limited"})
	var tr4 AssembledTrace
	r.getJSON("/trace?note=pub%234", &tr4)
	if tr4.Reason != "rate-limited" || !tr4.Partial {
		t.Fatalf("reason-only trace: %+v", tr4)
	}

	// The listing returns newest-first.
	var list struct {
		Retained int              `json:"retained"`
		Traces   []AssembledTrace `json:"traces"`
	}
	r.getJSON("/trace", &list)
	if list.Retained != 4 || len(list.Traces) != 4 || list.Traces[0].Note != "pub#4" {
		t.Fatalf("trace listing: retained=%d first=%+v", list.Retained, list.Traces)
	}
}

func TestTraceRetentionBound(t *testing.T) {
	r := newRig(t, Config{TraceCap: 2})
	t0 := time.Unix(1700000000, 0).UTC()
	for i := 1; i <= 3; i++ {
		r.serveSpans("A", span(fmt.Sprintf("pub#%d", i), 0, telemetry.TraceHop{Broker: "A", At: t0.Add(time.Duration(i) * time.Millisecond)}))
	}
	if r.c.TraceCount() != 2 {
		t.Fatalf("TraceCount = %d, want 2", r.c.TraceCount())
	}
	var tr AssembledTrace
	if code := r.getJSON("/trace?note=pub%231", &tr); code != 404 {
		t.Fatalf("evicted trace returned %d, want 404", code)
	}
	got := r.c.Traces(0)
	if len(got) != 2 || got[0].Note != "pub#3" || got[1].Note != "pub#2" {
		t.Fatalf("retained traces: %+v", got)
	}
}

// TestSpanCursorSurvivesBrokerRestart: the collector reads each broker's
// spans from a cursor. A restarted broker's span store counts from 0
// again, so the old cursor would hide its first spans; the store's start
// stamp changes with it, and the collector re-reads from 0.
func TestSpanCursorSurvivesBrokerRestart(t *testing.T) {
	r := newRig(t, Config{})
	t0 := time.Unix(1700000000, 0).UTC()
	record := func(s *telemetry.SpanStore, seqs ...uint64) {
		for _, seq := range seqs {
			s.Record(message.NotificationID{Publisher: "pub", Seq: seq}, []message.HopStamp{{Broker: "A", At: t0}})
		}
	}
	before := telemetry.NewSpanStore(0)
	record(before, 1, 2, 3)
	fb := r.broker("A")
	fb.set(func(fb *fakeBroker) { fb.store = before })
	r.c.Scrape()
	if n := r.c.TraceCount(); n != 3 {
		t.Fatalf("first incarnation: %d traces, want 3", n)
	}
	// Restart: a new store whose clock is behind the collector's cursor.
	after := telemetry.NewSpanStore(0)
	for after.Start() == before.Start() {
		after = telemetry.NewSpanStore(0)
	}
	record(after, 10, 11)
	fb.set(func(fb *fakeBroker) { fb.store = after })
	r.c.Scrape()
	for _, seq := range []uint64{10, 11} {
		if _, ok := r.c.Trace(message.NotificationID{Publisher: "pub", Seq: seq}); !ok {
			t.Fatalf("pub#%d of the restarted broker never assembled (%d traces)", seq, r.c.TraceCount())
		}
	}
	// The cursor now follows the new store: nothing is read twice.
	record(after, 12)
	r.c.Scrape()
	if n := r.c.TraceCount(); n != 6 {
		t.Fatalf("after the restart: %d traces, want 6", n)
	}
}

// TestMetricFoldingProm scrapes Prometheus text from two brokers and
// checks per-instance re-export plus fleet delta folding with
// counter-reset handling. A mechanism family (core.wasted) folds like any
// other counter: the fleet's wasted buffers are the brokers' sum.
func TestMetricFoldingProm(t *testing.T) {
	r := newRig(t, Config{})
	prom := func(v int) []byte {
		return []byte(fmt.Sprintf(
			"# HELP rebeca_publishes_total Client publishes accepted.\n"+
				"# TYPE rebeca_publishes_total counter\n"+
				"rebeca_publishes_total{broker=\"A\"} %d\n"+
				"# TYPE rebeca_core_wasted_total counter\n"+
				"rebeca_core_wasted_total{broker=\"A\"} 3\n"+
				"# TYPE rebeca_link_state gauge\n"+
				"rebeca_link_state{link=\"A-B\"} 1\n", v))
	}
	r.serveMetrics("A", prom(5))
	r.serveMetrics("B", []byte(
		"# TYPE rebeca_publishes_total counter\nrebeca_publishes_total{broker=\"B\"} 2\n"+
			"# TYPE rebeca_core_wasted_total counter\nrebeca_core_wasted_total{broker=\"B\"} 4\n"))

	out := string(r.c.renderMetrics())
	for _, want := range []string{
		`rebeca_publishes_total{broker="A",instance="A"} 5`,
		`rebeca_publishes_total{broker="B",instance="B"} 2`,
		`rebeca_link_state{link="A-B",instance="A"} 1`,
		`rebeca_fleet_publishes_total 7`,
		`rebeca_core_wasted_total{broker="A",instance="A"} 3`,
		`rebeca_core_wasted_total{broker="B",instance="B"} 4`,
		`rebeca_fleet_core_wasted_total 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged render missing %q:\n%s", want, out)
		}
	}

	// The next reading folds only the movement.
	r.serveMetrics("A", prom(9))
	out = string(r.c.renderMetrics())
	if !strings.Contains(out, "rebeca_fleet_publishes_total 11") {
		t.Fatalf("delta fold wrong (want 2+9=11):\n%s", out)
	}
	if !strings.Contains(out, "rebeca_fleet_core_wasted_total 7\n") {
		t.Fatalf("an unmoved counter refolded (want wasted 3+4=7):\n%s", out)
	}
	// A counter going backwards is a broker restart: the new reading is
	// all new movement, not a negative delta.
	r.serveMetrics("A", prom(3))
	out = string(r.c.renderMetrics())
	if !strings.Contains(out, "rebeca_fleet_publishes_total 14") {
		t.Fatalf("reset fold wrong (want 11+3=14):\n%s", out)
	}
	// Gauges never fold into fleet totals.
	if strings.Contains(out, "rebeca_fleet_link_state") {
		t.Fatalf("gauge folded into a fleet total:\n%s", out)
	}
}

// foldSample is one series of a generated /metrics body, as the fold
// model sees it.
type foldSample struct {
	family, typ, fullName, labels string
	value                         float64
}

// foldModel is the specification the collector's one fold is checked
// against: the last absolute value per (instance, series), and per _total
// counter family the sum of positive movement, a backwards step (a broker
// restart) counting whole. The two flags are seeded mutations of that
// specification; TestFoldAgainstModel requires the check to tell each from
// the collector.
type foldModel struct {
	resetNegative bool // mutation: a reset subtracts instead of counting whole
	foldGauges    bool // mutation: gauges fold like counters

	rows  map[string]float64 // fullName+labels (instance merged) -> last value
	fleet map[string]float64 // rebeca_fleet_* -> folded total
	types map[string]string  // family -> TYPE
}

func (m *foldModel) push(instance string, samples []foldSample) {
	for _, s := range samples {
		m.types[s.family] = s.typ
		key := s.fullName + mergeInstanceKey(s.labels, instance)
		old, seen := m.rows[key]
		m.rows[key] = s.value
		if !strings.HasSuffix(s.fullName, "_total") || (s.typ != "counter" && !m.foldGauges) {
			continue
		}
		delta := s.value
		if seen && (s.value >= old || m.resetNegative) {
			delta = s.value - old
		}
		if delta != 0 {
			name := FleetPrefix + strings.TrimPrefix(s.fullName, "rebeca_")
			m.fleet[name] += delta
			m.types[name] = "counter"
		}
	}
}

// check compares one merged render with the model: every line strict
// 0.0.4, the broker rows and fleet totals exactly the model's, one TYPE
// block of the right type per family. The collector's self-telemetry
// (instance="collector") is outside the model.
func (m *foldModel) check(render []byte) error {
	want := make(map[string]float64, len(m.rows)+len(m.fleet))
	for k, v := range m.rows {
		want[k] = v
	}
	for k, v := range m.fleet {
		want[k] = v
	}
	types := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(render), "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if _, dup := types[f[2]]; dup {
				return fmt.Errorf("family %s has two TYPE blocks", f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		if !expositionLine.MatchString(line) {
			return fmt.Errorf("bad exposition line %q", line)
		}
		if strings.Contains(line, `instance="collector"`) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := parsePromValue(line[sp+1:])
		if err != nil {
			return fmt.Errorf("line %q: %v", line, err)
		}
		w, ok := want[line[:sp]]
		if !ok || w != v {
			return fmt.Errorf("render has %q; model has %v (present %v)", line, w, ok)
		}
		delete(want, line[:sp])
	}
	for k, v := range want {
		return fmt.Errorf("render lacks %s %v", k, v)
	}
	for fam, typ := range m.types {
		if types[fam] != typ {
			return fmt.Errorf("family %s rendered as %q, model says %q", fam, types[fam], typ)
		}
	}
	for fam := range types {
		if _, ok := m.types[fam]; !ok && strings.HasPrefix(fam, FleetPrefix) {
			return fmt.Errorf("fleet family %s is not in the model", fam)
		}
	}
	return nil
}

// foldBroker is one simulated broker process: two counters, a counter
// whose name lacks _total (re-exported, never folded), a gauge that moves
// both ways and — so that the TYPE line and not the name decides — is
// named like a total, and one histogram.
type foldBroker struct {
	name                       string
	publishes, deliveries, odd float64
	sessions                   float64
	buckets                    [3]float64 // le=0.1, le=1, +Inf (cumulative)
	sum                        float64
}

func (b *foldBroker) step(rng *rand.Rand) {
	if rng.Intn(8) == 0 {
		// Restart: every cumulative series starts over at a small value.
		*b = foldBroker{name: b.name, sessions: b.sessions}
	}
	b.publishes += float64(rng.Intn(5))
	b.deliveries += float64(rng.Intn(3))
	b.odd += float64(rng.Intn(2))
	b.sessions = float64(rng.Intn(10))
	for n := rng.Intn(3); n > 0; n-- {
		i := rng.Intn(3)
		for ; i < 3; i++ {
			b.buckets[i]++
		}
		b.sum += 0.25
	}
}

func (b *foldBroker) samples() []foldSample {
	l := fmt.Sprintf("{broker=%q}", b.name)
	le := func(bound string) string { return fmt.Sprintf("{broker=%q,le=%q}", b.name, bound) }
	const h = "rebeca_e2e_latency_seconds"
	return []foldSample{
		{"rebeca_publishes_total", "counter", "rebeca_publishes_total", l, b.publishes},
		{"rebeca_deliveries_total", "counter", "rebeca_deliveries_total", l, b.deliveries},
		{"rebeca_odd_events", "counter", "rebeca_odd_events", l, b.odd},
		{"rebeca_open_sessions_total", "gauge", "rebeca_open_sessions_total", l, b.sessions},
		{h, "histogram", h + "_bucket", le("0.1"), b.buckets[0]},
		{h, "histogram", h + "_bucket", le("1"), b.buckets[1]},
		{h, "histogram", h + "_bucket", le("+Inf"), b.buckets[2]},
		{h, "histogram", h + "_sum", l, b.sum},
		{h, "histogram", h + "_count", l, b.buckets[2]},
	}
}

// foldBody renders samples as a Prometheus text /metrics body.
func foldBody(samples []foldSample) []byte {
	var b bytes.Buffer
	typed := make(map[string]bool)
	for _, s := range samples {
		if !typed[s.family] {
			typed[s.family] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.family, s.typ)
		}
		b.WriteString(sampleLine(s.fullName, s.labels, s.value))
	}
	return b.Bytes()
}

// runFold scrapes a seeded random sequence of broker readings —
// counters advancing, restarting brokers, a gauge moving both ways, one
// histogram each — and checks the merged render against m after every
// round; the first disagreement is returned. Each round changes one
// broker and reads all of them: an unchanged reading folds nothing.
func runFold(t *testing.T, seed int64, m *foldModel) error {
	t.Helper()
	m.rows, m.fleet, m.types = map[string]float64{}, map[string]float64{}, map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	r := newRig(t, Config{})
	brokers := make([]*foldBroker, 4)
	for i := range brokers {
		brokers[i] = &foldBroker{name: fmt.Sprintf("B%d", i)}
	}
	for round := 0; round < 150; round++ {
		b := brokers[rng.Intn(len(brokers))]
		b.step(rng)
		samples := b.samples()
		r.serveMetrics(b.name, foldBody(samples))
		m.push(b.name, samples)
		if err := m.check(r.c.renderMetrics()); err != nil {
			return fmt.Errorf("seed %d round %d (%s): %w", seed, round, b.name, err)
		}
	}
	return nil
}

// TestFoldAgainstModel is the specification of the collector's one fold
// (Prometheus text in, absolute re-export plus rebeca_fleet_*_total out),
// as a seeded property: see foldModel. It also shows the check has teeth —
// each mutated model must be told apart from the collector.
func TestFoldAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		if err := runFold(t, seed, &foldModel{}); err != nil {
			t.Fatal(err)
		}
		if err := runFold(t, seed, &foldModel{resetNegative: true}); err == nil {
			t.Fatalf("seed %d: a model taking resets as negative movement passed", seed)
		}
		if err := runFold(t, seed, &foldModel{foldGauges: true}); err == nil {
			t.Fatalf("seed %d: a model folding gauges passed", seed)
		}
	}
}

// TestStaleness: a broker is stale exactly when its last scrape failed
// or the registry stopped listing it, and fresh again after one good
// round.
func TestStaleness(t *testing.T) {
	r := newRig(t, Config{})
	body := []byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 1\n")
	r.serveMetrics("A", body)
	r.serveMetrics("B", body)
	status := func() map[string]FleetBroker {
		f := r.fleet()
		out := make(map[string]FleetBroker)
		for _, b := range f.Brokers {
			out[b.Instance] = b
		}
		if len(out) != 2 {
			t.Fatalf("fleet = %+v, want brokers A and B", f)
		}
		return out
	}
	if s := status(); s["A"].Status != "ok" || s["B"].Status != "ok" || s["A"].Scrapes != 2 {
		t.Fatalf("fresh fleet: %+v", s)
	}

	// A's endpoint fails: stale from that round on, with the reason.
	r.broker("A").set(func(fb *fakeBroker) { fb.status["/metrics"] = http.StatusInternalServerError })
	r.c.Scrape()
	if s := status(); s["A"].Status != "stale" || !strings.Contains(s["A"].Error, "500") || s["B"].Status != "ok" {
		t.Fatalf("failed scrape: %+v", s)
	}
	if f := r.fleet(); f.Stale != 1 {
		t.Fatalf("stale = %d, want 1", f.Stale)
	}
	// One good round recovers it.
	r.broker("A").set(func(fb *fakeBroker) { delete(fb.status, "/metrics") })
	r.c.Scrape()
	if s := status(); s["A"].Status != "ok" || s["A"].Error != "" {
		t.Fatalf("recovered broker: %+v", s["A"])
	}

	// The registry stops listing B: stale, though its endpoint still serves.
	_ = r.reg.Deregister("B")
	r.c.Scrape()
	if s := status(); s["B"].Status != "stale" || s["B"].Error != "not listed in the registry" || s["A"].Status != "ok" {
		t.Fatalf("deregistered broker: %+v", s)
	}
	ok, stale := r.c.brokerCounts()
	if ok != 1 || stale != 1 {
		t.Fatalf("broker gauge: ok=%d stale=%d, want 1 and 1", ok, stale)
	}
}

// TestSharedEndpointMembershipChanges: the brokers listed behind one ops
// endpoint change while it serves — an in-process deployment registers
// them one at a time and deregisters them one at a time. The endpoint
// stays one instance; its rows move to the new name and fold nothing a
// second time.
func TestSharedEndpointMembershipChanges(t *testing.T) {
	r := newRig(t, Config{})
	r.serveMetrics("D", []byte("# TYPE rebeca_publishes_total counter\n"+
		"rebeca_publishes_total{broker=\"D\"} 4\nrebeca_publishes_total{broker=\"E\"} 3\n"))
	check := func(instance string) {
		t.Helper()
		out := string(r.c.renderMetrics())
		for _, want := range []string{
			fmt.Sprintf(`rebeca_publishes_total{broker="D",instance=%q} 4`, instance),
			fmt.Sprintf(`rebeca_publishes_total{broker="E",instance=%q} 3`, instance),
			"rebeca_fleet_publishes_total 7\n",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("as %s: merged render missing %q:\n%s", instance, want, out)
			}
		}
		if n := strings.Count(out, "rebeca_publishes_total{"); n != 2 {
			t.Fatalf("as %s: %d per-broker rows, want 2:\n%s", instance, n, out)
		}
		f := r.fleet()
		if len(f.Brokers) != 1 || f.Brokers[0].Instance != instance || f.Stale != 0 {
			t.Fatalf("fleet = %+v, want one fresh instance %s", f, instance)
		}
	}
	check("D")
	ops := r.broker("D").srv.Listener.Addr().String()
	_ = r.reg.Register(discovery.Entry{ID: "E", Ops: ops})
	r.c.Scrape()
	check("D,E")
	_ = r.reg.Deregister("D")
	r.c.Scrape()
	check("E")
}

// TestBrokerMovesEndpoint: a broker that restarts on another ops port is
// the same instance; the endpoint it left is dropped, not left stale.
func TestBrokerMovesEndpoint(t *testing.T) {
	r := newRig(t, Config{})
	r.serveMetrics("A", []byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 5\n"))
	moved := &fakeBroker{status: make(map[string]int),
		metrics: []byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 2\n")}
	moved.srv = httptest.NewServer(moved)
	t.Cleanup(moved.srv.Close)
	_ = r.reg.Deregister("A")
	_ = r.reg.Register(discovery.Entry{ID: "A", Ops: moved.srv.Listener.Addr().String()})
	r.c.Scrape()
	f := r.fleet()
	if len(f.Brokers) != 1 || f.Brokers[0].Ops != moved.srv.Listener.Addr().String() || f.Stale != 0 {
		t.Fatalf("fleet = %+v, want A fresh at its new endpoint only", f)
	}
	// The restarted broker's counter went backwards: it folds whole.
	if out := string(r.c.renderMetrics()); !strings.Contains(out, "rebeca_fleet_publishes_total 7\n") {
		t.Fatalf("restart fold wrong (want 5+2=7):\n%s", out)
	}
}

// expositionLine is the 0.0.4 shape CI validates scrapes against.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9.eE+-]+|\+Inf|NaN)$`)

// TestMergedExpositionStrict renders the merged fleet scrape — self
// telemetry, two brokers (one with a histogram), fleet totals — and
// requires strict 0.0.4: every sample line parseable, exactly one TYPE
// line per family.
func TestMergedExpositionStrict(t *testing.T) {
	r := newRig(t, Config{})
	// A broker reading with a histogram family, straight from a real
	// registry render.
	reg := telemetry.NewRegistry()
	reg.Counter("rebeca_publishes_total", "publishes", telemetry.Labels{"broker": "A"}).Add(3)
	reg.Histogram("rebeca_e2e_latency_seconds", "latency", nil, telemetry.Labels{"broker": "A"}).Observe(0.004)
	var promBody bytes.Buffer
	if err := reg.WritePrometheus(&promBody); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	r.serveMetrics("A", promBody.Bytes())
	r.serveMetrics("B", []byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total{broker=\"B\"} 1\n"))

	out := string(r.c.renderMetrics())
	types := make(map[string]int)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[fields[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("bad exposition line: %q", line)
		}
	}
	for name, n := range types {
		if n != 1 {
			t.Fatalf("family %s has %d TYPE lines", name, n)
		}
	}
	// One histogram family block, not three counter families.
	if types["rebeca_e2e_latency_seconds"] != 1 || types["rebeca_e2e_latency_seconds_bucket"] != 0 {
		t.Fatalf("histogram family split: %v", types)
	}
	// Self-telemetry and fleet totals are present.
	for _, want := range []string{
		"# TYPE " + MetricScrapes + " counter",
		`rebeca_collector_scrapes_total{result="ok",instance="collector"} 3`,
		"# TYPE " + telemetry.MetricGoGoroutines + " gauge",
		`instance="collector"`,
		"rebeca_fleet_publishes_total 4",
		`rebeca_e2e_latency_seconds_bucket{broker="A",le="+Inf",instance="A"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged render missing %q:\n%s", want, out)
		}
	}
}

// TestIngestRejectsGarbage covers the scrape error paths: an unparseable
// /metrics body, a non-200 answer on either path and a body over the size
// cap each count result="error", mark the broker stale and apply nothing —
// no rows, no fleet movement, no span.
func TestIngestRejectsGarbage(t *testing.T) {
	r := newRig(t, Config{})
	good := []byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 5\n")
	oldRemoteWrite, _ := hex.DecodeString("0a520a220a085f5f6e616d655f5f12167265626563615f7075626c69736865735f746f74616c" +
		"0a0b0a0662726f6b65721201410a0d0a08696e7374616e636512014112100900000000000008401080d095ffbc31")
	cases := map[string]func(fb *fakeBroker){
		"json":     func(fb *fakeBroker) { fb.metrics = []byte("{nope") },
		"protobuf": func(fb *fakeBroker) { fb.metrics = []byte{0x99, 0x01} },
		// Well-formed bodies of the two push encodings this collector
		// never spoke back: a JSON delta payload and a remote-write
		// WriteRequest are garbage to the one parser too.
		"jsondelta": func(fb *fakeBroker) {
			fb.metrics = []byte(`{"instance":"A","points":[{"name":"rebeca_publishes_total","labels":"{broker=\"A\"}","type":"counter","value":3}]}`)
		},
		"remotewrite": func(fb *fakeBroker) { fb.metrics = oldRemoteWrite },
		// A sample without a metric name would re-export as an
		// unparseable line.
		"nameless":   func(fb *fakeBroker) { fb.metrics = []byte("{broker=\"A\"} 1\n") },
		"metrics500": func(fb *fakeBroker) { fb.metrics, fb.status["/metrics"] = good, http.StatusInternalServerError },
		"trace404":   func(fb *fakeBroker) { fb.metrics, fb.status["/trace"] = good, http.StatusNotFound },
		"oversize": func(fb *fakeBroker) {
			fb.metrics = append(bytes.Repeat([]byte("# padding\n"), maxScrapeBody/10), good...)
		},
	}
	for name, setup := range cases {
		fb := r.broker(name)
		fb.set(setup)
		fb.set(func(fb *fakeBroker) {
			fb.spans = []telemetry.TraceSpan{span(name+"#1", 0, telemetry.TraceHop{Broker: name})}
		})
	}
	r.c.Scrape()
	if got := r.c.scrapesErr.Value(); got != uint64(len(cases)) {
		t.Fatalf("error scrapes = %d, want %d", got, len(cases))
	}
	if got := r.c.scrapesOK.Value(); got != 0 {
		t.Fatalf("ok scrapes = %d, want 0", got)
	}
	f := r.fleet()
	if f.Stale != len(cases) || len(f.Brokers) != len(cases) {
		t.Fatalf("fleet = %+v, want %d stale brokers", f, len(cases))
	}
	for _, b := range f.Brokers {
		if b.Status != "stale" || b.Error == "" || b.Scrapes != 0 {
			t.Errorf("broker %s: %+v", b.Instance, b)
		}
	}
	if n := r.c.TraceCount(); n != 0 {
		t.Fatalf("%d traces assembled from failed scrapes", n)
	}
	if out := string(r.c.renderMetrics()); strings.Contains(out, "rebeca_publishes_total") || strings.Contains(out, FleetPrefix) {
		t.Fatalf("a failed scrape applied samples:\n%s", out)
	}
	// The collector is read-only: nothing is accepted by POST.
	for _, path := range []string{"/", "/ingest", "/metrics"} {
		if w := r.get("POST", path); w.Code < 400 {
			t.Errorf("POST %s = %d, want a refusal", path, w.Code)
		}
	}
}

// TestFleetSpillDepth: per-broker spill gauges roll up onto /fleet so
// an operator watches a partition backlog drain fleet-wide.
func TestFleetSpillDepth(t *testing.T) {
	r := newRig(t, Config{})
	r.serveMetrics("A", []byte(
		"# TYPE rebeca_link_spill_depth gauge\n"+
			`rebeca_link_spill_depth{broker="A",peer="B"} 7`+"\n"+
			`rebeca_link_spill_depth{broker="A",peer="C"} 5`+"\n"))
	r.serveMetrics("B", []byte(
		"# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 1\n"))

	fleet := r.fleet()
	if len(fleet.Brokers) != 2 {
		t.Fatalf("brokers = %d, want 2", len(fleet.Brokers))
	}
	byName := map[string]FleetBroker{}
	for _, b := range fleet.Brokers {
		byName[b.Instance] = b
	}
	if byName["A"].SpillDepth != 12 {
		t.Fatalf("A spill depth = %v, want 12 (7+5 across links)", byName["A"].SpillDepth)
	}
	if byName["B"].SpillDepth != 0 {
		t.Fatalf("B spill depth = %v, want 0", byName["B"].SpillDepth)
	}
}
