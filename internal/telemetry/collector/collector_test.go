package collector

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"rebeca/internal/telemetry"
)

// postBody pushes one body through the collector's HTTP surface.
func postBody(t *testing.T, c *Collector, ctype, instance string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	if instance != "" {
		req.Header.Set(telemetry.InstanceHeader, instance)
	}
	w := httptest.NewRecorder()
	c.Handler().ServeHTTP(w, req)
	return w
}

func postSpans(t *testing.T, c *Collector, instance string, recs []telemetry.SpanExport) {
	t.Helper()
	body, err := telemetry.EncodeSpanBatch(recs)
	if err != nil {
		t.Fatalf("EncodeSpanBatch: %v", err)
	}
	if w := postBody(t, c, telemetry.ContentTypeSpans, instance, body); w.Code != 204 {
		t.Fatalf("span push: %d %s", w.Code, w.Body)
	}
}

func getJSON(t *testing.T, c *Collector, path string, into any) int {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	c.Handler().ServeHTTP(w, req)
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: decode: %v\n%s", path, err, w.Body)
		}
	}
	return w.Code
}

// TestTraceAssemblyAdversity drives the assembly through the failure
// modes a real fleet produces — duplicated shipments, out-of-order
// arrival, partial paths — and requires an idempotent, hop-timestamp-
// ordered result.
func TestTraceAssemblyAdversity(t *testing.T) {
	c := New(Config{})
	t0 := time.Unix(1700000000, 0).UTC()
	// The delivering broker B ships the full trail; transit broker A ships
	// only its prefix — and its batch arrives FIRST? No: out of order, B's
	// full trail lands before A's prefix.
	full := telemetry.SpanExport{
		Instance: "B", Note: "pub#1", LatencyMS: 2.5,
		Hops: []telemetry.SpanExportHop{
			{Broker: "A", At: t0},
			{Broker: "B", At: t0.Add(2 * time.Millisecond)},
		},
	}
	prefix := telemetry.SpanExport{
		Instance: "A", Note: "pub#1",
		Hops: []telemetry.SpanExportHop{{Broker: "A", At: t0}},
	}
	postSpans(t, c, "B", []telemetry.SpanExport{full})
	postSpans(t, c, "A", []telemetry.SpanExport{prefix})
	// Duplicated shipments (the pusher is at-least-once): same records again.
	postSpans(t, c, "B", []telemetry.SpanExport{full})
	postSpans(t, c, "A", []telemetry.SpanExport{prefix, prefix})

	var tr AssembledTrace
	if code := getJSON(t, c, "/trace?note=pub%231", &tr); code != 200 {
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
	if c.TraceCount() != 1 {
		t.Fatalf("TraceCount = %d, want 1", c.TraceCount())
	}

	// Partial path: a hop names broker C, but C never pushed to this
	// collector — the assembled view cannot be assumed complete.
	postSpans(t, c, "A", []telemetry.SpanExport{{
		Instance: "A", Note: "pub#2",
		Hops: []telemetry.SpanExportHop{
			{Broker: "A", At: t0},
			{Broker: "C", At: t0.Add(time.Millisecond)},
		},
	}})
	var tr2 AssembledTrace
	if code := getJSON(t, c, "/trace?note=pub%232", &tr2); code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	if !tr2.Partial {
		t.Fatalf("hop broker C never reported; trace not marked partial: %+v", tr2)
	}
	// ...until C's shipment arrives, which completes it.
	postSpans(t, c, "C", []telemetry.SpanExport{{
		Instance: "C", Note: "pub#2",
		Hops: []telemetry.SpanExportHop{{Broker: "C", At: t0.Add(time.Millisecond)}},
	}})
	if getJSON(t, c, "/trace?note=pub%232", &tr2); tr2.Partial {
		t.Fatalf("all brokers reported; still partial: %+v", tr2)
	}

	// A deployment instance ("A,B" — in-process brokers pushing through
	// one pusher) covers every broker it joins.
	postSpans(t, c, "A,B", []telemetry.SpanExport{{
		Instance: "A,B", Note: "pub#3",
		Hops: []telemetry.SpanExportHop{
			{Broker: "A", At: t0},
			{Broker: "B", At: t0.Add(time.Millisecond)},
		},
	}})
	var tr3 AssembledTrace
	getJSON(t, c, "/trace?note=pub%233", &tr3)
	if tr3.Partial || len(tr3.Hops) != 2 {
		t.Fatalf("deployment-instance trace: %+v", tr3)
	}

	// Reason-only retro-capture records (no hops yet) assemble too and
	// read as partial.
	postSpans(t, c, "A", []telemetry.SpanExport{{Instance: "A", Note: "pub#4", Reason: "rate-limited"}})
	var tr4 AssembledTrace
	getJSON(t, c, "/trace?note=pub%234", &tr4)
	if tr4.Reason != "rate-limited" || !tr4.Partial {
		t.Fatalf("reason-only trace: %+v", tr4)
	}

	// The listing returns newest-first.
	var list struct {
		Retained int              `json:"retained"`
		Traces   []AssembledTrace `json:"traces"`
	}
	getJSON(t, c, "/trace", &list)
	if list.Retained != 4 || len(list.Traces) != 4 || list.Traces[0].Note != "pub#4" {
		t.Fatalf("trace listing: retained=%d first=%+v", list.Retained, list.Traces)
	}
}

func TestTraceRetentionBound(t *testing.T) {
	c := New(Config{TraceCap: 2})
	t0 := time.Unix(1700000000, 0).UTC()
	for i := 1; i <= 3; i++ {
		postSpans(t, c, "A", []telemetry.SpanExport{{
			Instance: "A", Note: fmt.Sprintf("pub#%d", i),
			Hops: []telemetry.SpanExportHop{{Broker: "A", At: t0.Add(time.Duration(i) * time.Millisecond)}},
		}})
	}
	if c.TraceCount() != 2 {
		t.Fatalf("TraceCount = %d, want 2", c.TraceCount())
	}
	var tr AssembledTrace
	if code := getJSON(t, c, "/trace?note=pub%231", &tr); code != 404 {
		t.Fatalf("evicted trace returned %d, want 404", code)
	}
	got := c.Traces(0)
	if len(got) != 2 || got[0].Note != "pub#3" || got[1].Note != "pub#2" {
		t.Fatalf("retained traces: %+v", got)
	}
}

// TestMetricFoldingProm pushes Prometheus text snapshots from two
// brokers and checks per-instance re-export plus fleet delta folding
// with counter-reset handling. A mechanism family (core.wasted) folds like
// any other counter: the fleet's wasted buffers are the brokers' sum.
func TestMetricFoldingProm(t *testing.T) {
	c := New(Config{})
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
	if w := postBody(t, c, "text/plain; version=0.0.4", "A", prom(5)); w.Code != 204 {
		t.Fatalf("prom push: %d %s", w.Code, w.Body)
	}
	postBody(t, c, "text/plain; version=0.0.4", "B", []byte(
		"# TYPE rebeca_publishes_total counter\nrebeca_publishes_total{broker=\"B\"} 2\n"+
			"# TYPE rebeca_core_wasted_total counter\nrebeca_core_wasted_total{broker=\"B\"} 4\n"))

	out := string(c.renderMetrics())
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

	// Second push folds only the movement.
	postBody(t, c, "text/plain; version=0.0.4", "A", prom(9))
	out = string(c.renderMetrics())
	if !strings.Contains(out, "rebeca_fleet_publishes_total 11") {
		t.Fatalf("delta fold wrong (want 2+9=11):\n%s", out)
	}
	if !strings.Contains(out, "rebeca_fleet_core_wasted_total 7\n") {
		t.Fatalf("an unmoved counter refolded (want wasted 3+4=7):\n%s", out)
	}
	// A counter going backwards is a broker restart: the new reading is
	// all new movement, not a negative delta.
	postBody(t, c, "text/plain; version=0.0.4", "A", prom(3))
	out = string(c.renderMetrics())
	if !strings.Contains(out, "rebeca_fleet_publishes_total 14") {
		t.Fatalf("reset fold wrong (want 11+3=14):\n%s", out)
	}
	// Gauges never fold into fleet totals.
	if strings.Contains(out, "rebeca_fleet_link_state") {
		t.Fatalf("gauge folded into a fleet total:\n%s", out)
	}
}

// foldSample is one series of a generated push body, as the fold model
// sees it.
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

// foldBody renders samples as a Prometheus text push body.
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

// runFold pushes a seeded random interleaving of broker snapshots —
// counters advancing, restarting brokers, a gauge moving both ways, one
// histogram each — and checks the merged render against m after every
// push; the first disagreement is returned.
func runFold(t *testing.T, seed int64, m *foldModel) error {
	t.Helper()
	m.rows, m.fleet, m.types = map[string]float64{}, map[string]float64{}, map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	c := New(Config{})
	brokers := make([]*foldBroker, 4)
	for i := range brokers {
		brokers[i] = &foldBroker{name: fmt.Sprintf("B%d", i)}
	}
	for push := 0; push < 150; push++ {
		b := brokers[rng.Intn(len(brokers))]
		b.step(rng)
		samples := b.samples()
		if w := postBody(t, c, "text/plain; version=0.0.4", b.name, foldBody(samples)); w.Code != 204 {
			t.Fatalf("push %d: %d %s", push, w.Code, w.Body)
		}
		m.push(b.name, samples)
		if err := m.check(c.renderMetrics()); err != nil {
			return fmt.Errorf("seed %d push %d (%s): %w", seed, push, b.name, err)
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

// TestStaleness drives the push-interval-derived deadline with a fake
// clock: a broker pushing every second goes stale once silent past 2x
// its cadence.
func TestStaleness(t *testing.T) {
	now := time.Unix(1700000000, 0).UTC()
	c := New(Config{Now: func() time.Time { return now }})
	push := func() {
		postBody(t, c, "text/plain; version=0.0.4", "A",
			[]byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 1\n"))
	}
	push()
	now = now.Add(time.Second)
	push()

	var fleet FleetStatus
	getJSON(t, c, "/fleet", &fleet)
	if fleet.Brokers[0].Status != "ok" || fleet.Brokers[0].StaleAfterMS != 2000 {
		t.Fatalf("fresh broker: %+v", fleet.Brokers[0])
	}

	// 1.5s silent: inside the 2x deadline.
	now = now.Add(1500 * time.Millisecond)
	getJSON(t, c, "/fleet", &fleet)
	if fleet.Brokers[0].Status != "ok" {
		t.Fatalf("broker stale inside deadline: %+v", fleet.Brokers[0])
	}

	// Past 2x the observed interval: stale.
	now = now.Add(time.Second)
	getJSON(t, c, "/fleet", &fleet)
	if fleet.Brokers[0].Status != "stale" || fleet.Stale != 1 {
		t.Fatalf("silent broker not stale: %+v", fleet)
	}

	// A fresh push recovers it.
	push()
	getJSON(t, c, "/fleet", &fleet)
	if fleet.Brokers[0].Status != "ok" {
		t.Fatalf("recovered broker still stale: %+v", fleet.Brokers[0])
	}

	// A fixed -stale-after overrides the derived deadline.
	c2 := New(Config{StaleAfter: 10 * time.Second, Now: func() time.Time { return now }})
	postBody(t, c2, "text/plain; version=0.0.4", "A",
		[]byte("# TYPE x_total counter\nx_total 1\n"))
	now = now.Add(5 * time.Second)
	getJSON(t, c2, "/fleet", &fleet)
	if fleet.Brokers[0].Status != "ok" || fleet.Brokers[0].StaleAfterMS != 10000 {
		t.Fatalf("fixed deadline: %+v", fleet.Brokers[0])
	}
	now = now.Add(6 * time.Second)
	getJSON(t, c2, "/fleet", &fleet)
	if fleet.Brokers[0].Status != "stale" {
		t.Fatalf("fixed deadline never fired: %+v", fleet.Brokers[0])
	}
}

// expositionLine is the 0.0.4 shape CI validates scrapes against.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9.eE+-]+|\+Inf|NaN)$`)

// TestMergedExpositionStrict renders the merged fleet scrape — self
// telemetry, two brokers (one with a histogram), fleet totals — and
// requires strict 0.0.4: every sample line parseable, exactly one TYPE
// line per family.
func TestMergedExpositionStrict(t *testing.T) {
	c := New(Config{})
	// A broker snapshot with a histogram family, straight from a real
	// registry render.
	reg := telemetry.NewRegistry()
	reg.Counter("rebeca_publishes_total", "publishes", telemetry.Labels{"broker": "A"}).Add(3)
	reg.Histogram("rebeca_e2e_latency_seconds", "latency", nil, telemetry.Labels{"broker": "A"}).Observe(0.004)
	var promBody bytes.Buffer
	if err := reg.WritePrometheus(&promBody); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	postBody(t, c, "text/plain; version=0.0.4", "A", promBody.Bytes())
	postBody(t, c, "text/plain; version=0.0.4", "B",
		[]byte("# TYPE rebeca_publishes_total counter\nrebeca_publishes_total{broker=\"B\"} 1\n"))

	out := string(c.renderMetrics())
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
		"# TYPE " + MetricPushes + " counter",
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

// TestIngestRejectsGarbage covers the error paths: undecodable bodies
// 400 and count on the error counter, not the accept counter.
func TestIngestRejectsGarbage(t *testing.T) {
	c := New(Config{})
	if w := postBody(t, c, "application/json", "A", []byte("{nope")); w.Code != 400 {
		t.Fatalf("bad json: %d", w.Code)
	}
	if w := postBody(t, c, telemetry.ContentTypeSpans, "A", []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}); w.Code != 400 {
		t.Fatalf("bad span frame: %d", w.Code)
	}
	if w := postBody(t, c, "application/x-protobuf", "A", []byte{0x99, 0x01}); w.Code != 400 {
		t.Fatalf("bad protobuf: %d", w.Code)
	}
	// Well-formed bodies of the two push encodings this collector no longer
	// speaks — a JSON delta payload and a remote-write WriteRequest, as the
	// pusher used to emit them — are garbage to the one parser too.
	oldJSON := []byte(`{"instance":"A","points":[{"name":"rebeca_publishes_total","labels":"{broker=\"A\"}","type":"counter","value":3}]}`)
	if w := postBody(t, c, "application/json", "A", oldJSON); w.Code != 400 {
		t.Fatalf("json delta body: %d", w.Code)
	}
	oldRemoteWrite, _ := hex.DecodeString("0a520a220a085f5f6e616d655f5f12167265626563615f7075626c69736865735f746f74616c" +
		"0a0b0a0662726f6b65721201410a0d0a08696e7374616e636512014112100900000000000008401080d095ffbc31")
	if w := postBody(t, c, "application/x-protobuf", "A", oldRemoteWrite); w.Code != 400 {
		t.Fatalf("remote-write body: %d", w.Code)
	}
	// A sample without a metric name would re-export as an unparseable line.
	if w := postBody(t, c, "text/plain; version=0.0.4", "A", []byte("{broker=\"A\"} 1\n")); w.Code != 400 {
		t.Fatalf("nameless sample: %d", w.Code)
	}
	if c.Accepted() != 0 {
		t.Fatalf("Accepted = %d after rejects, want 0", c.Accepted())
	}
	if got := c.self.Total(MetricPushErrors); got != 6 {
		t.Fatalf("push errors = %v, want 6", got)
	}
	// GET on the ingest path is a 405, like the pushsink before it.
	req := httptest.NewRequest("GET", "/somewhere", nil)
	w := httptest.NewRecorder()
	c.Handler().ServeHTTP(w, req)
	if w.Code != 405 {
		t.Fatalf("GET /somewhere = %d, want 405", w.Code)
	}
}

// TestFleetSpillDepth: per-broker spill gauges roll up onto /fleet so
// an operator watches a partition backlog drain fleet-wide.
func TestFleetSpillDepth(t *testing.T) {
	c := New(Config{})
	postBody(t, c, "text/plain; version=0.0.4", "A", []byte(
		"# TYPE rebeca_link_spill_depth gauge\n"+
			`rebeca_link_spill_depth{broker="A",peer="B"} 7`+"\n"+
			`rebeca_link_spill_depth{broker="A",peer="C"} 5`+"\n"))
	postBody(t, c, "text/plain; version=0.0.4", "B", []byte(
		"# TYPE rebeca_publishes_total counter\nrebeca_publishes_total 1\n"))

	var fleet FleetStatus
	getJSON(t, c, "/fleet", &fleet)
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
