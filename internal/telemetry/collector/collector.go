// Package collector implements the fleet-side receiver for rebeca's
// push-model telemetry: the component a broker's -push flag points at.
// It ingests metric snapshots (Prometheus text exposition 0.0.4, the body
// /metrics serves) and span batches from N brokers, assembles the
// partial per-process hop traces into cross-broker end-to-end traces,
// folds counter movement into fleet-wide totals, and re-exports the
// whole fleet as one Prometheus /metrics endpoint with per-broker
// instance labels preserved.
//
// The collector is deliberately stateless across restarts: brokers keep
// pushing, and within one push interval the fleet view rebuilds itself.
package collector

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/telemetry"
)

// Collector self-telemetry family names (exported on its own /metrics
// next to the ingested fleet families).
const (
	MetricPushes        = "rebeca_collector_pushes_total"
	MetricPushErrors    = "rebeca_collector_push_errors_total"
	MetricSpanRecords   = "rebeca_collector_span_records_total"
	MetricTraces        = "rebeca_collector_traces"
	MetricTracesEvicted = "rebeca_collector_traces_evicted_total"
	MetricBrokers       = "rebeca_collector_brokers"
)

// FleetPrefix heads every folded fleet-total family name.
const FleetPrefix = "rebeca_fleet_"

// DefaultTraceCap bounds assembled traces retained (drop-oldest).
const DefaultTraceCap = 4096

// DefaultStaleAfter is the staleness deadline used for a broker whose
// push cadence is not yet known (fewer than two pushes seen) when no
// explicit Config.StaleAfter overrides it.
const DefaultStaleAfter = 30 * time.Second

// burstFloor is the smallest inter-push gap accepted as a cadence
// reading. A broker's flush posts its metric snapshot and span batch
// back to back; treating that burst as the push interval would derive
// a near-zero staleness deadline and flag every broker stale.
const burstFloor = 250 * time.Millisecond

// Config configures a Collector.
type Config struct {
	// Instance labels the collector's own self-telemetry samples on the
	// merged /metrics render (default "collector").
	Instance string
	// StaleAfter, when positive, is a fixed deadline after which a silent
	// broker is reported stale on /fleet. Zero derives the deadline from
	// each broker's observed push cadence: 2x the last inter-push gap
	// (DefaultStaleAfter until a gap has been observed).
	StaleAfter time.Duration
	// TraceCap bounds assembled traces retained (default DefaultTraceCap).
	TraceCap int
	// Logger receives per-push debug lines (nil = silent).
	Logger *slog.Logger
	// Raw, when non-nil, receives every accepted push body verbatim
	// (framed with a one-line header) — the rebeca-pushsink audit-trail
	// behavior, kept for CI and debugging.
	Raw io.Writer
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// rowState is one re-exported sample: a series of some broker, with the
// instance label already merged into labelKey. For counter rows value
// tracks the last absolute reading (the fold baseline).
type rowState struct {
	fullName string
	labelKey string
	value    float64
}

// familyState groups the re-exported rows sharing a metric family.
type familyState struct {
	name  string
	typ   string
	rows  []*rowState
	index map[string]int
}

// instanceState is everything known about one reporting process.
type instanceState struct {
	name        string
	lastPush    time.Time
	gap         time.Duration // last inter-push gap; cadence estimate
	pushes      uint64
	spanRecords uint64
}

// traceState is one cross-broker trace under assembly: the union of hop
// stamps shipped by every reporting process, keyed by broker so
// duplicated shipments merge idempotently (earliest stamp wins).
type traceState struct {
	id        message.NotificationID
	hops      map[string]time.Time
	reporters map[string]struct{}
	latencyMS float64
	reason    string
	updated   time.Time
}

// Collector ingests broker pushes and serves the assembled fleet view.
// Safe for concurrent use.
type Collector struct {
	cfg  Config
	self *telemetry.Registry

	pushMetrics *telemetry.Counter
	pushSpans   *telemetry.Counter
	pushErrors  *telemetry.Counter
	spanRecords *telemetry.Counter

	rawMu sync.Mutex // serializes Config.Raw appends

	mu        sync.Mutex
	instances map[string]*instanceState
	instOrder []string
	fams      map[string]*familyState
	famOrder  []string
	fleet     map[string]float64
	fleetOrd  []string
	traces    map[message.NotificationID]*traceState
	ring      []message.NotificationID
	head      int
	evicted   uint64
	accepted  uint64
}

// New builds a collector. Handler serves it.
func New(cfg Config) *Collector {
	if cfg.Instance == "" {
		cfg.Instance = "collector"
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = DefaultTraceCap
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Collector{
		cfg:       cfg,
		self:      telemetry.NewRegistry(),
		instances: make(map[string]*instanceState),
		fams:      make(map[string]*familyState),
		fleet:     make(map[string]float64),
		traces:    make(map[message.NotificationID]*traceState),
	}
	c.pushMetrics = c.self.Counter(MetricPushes, "Push bodies accepted, by kind.", telemetry.Labels{"kind": "metrics"})
	c.pushSpans = c.self.Counter(MetricPushes, "Push bodies accepted, by kind.", telemetry.Labels{"kind": "spans"})
	c.pushErrors = c.self.Counter(MetricPushErrors, "Push bodies rejected as undecodable.", nil)
	c.spanRecords = c.self.Counter(MetricSpanRecords, "Span records ingested (before merge).", nil)
	c.self.GaugeFunc(MetricTraces, "Cross-broker traces currently retained.",
		func(emit func(telemetry.Labels, float64)) {
			c.mu.Lock()
			n := len(c.traces)
			c.mu.Unlock()
			emit(nil, float64(n))
		})
	c.self.CounterFunc(MetricTracesEvicted, "Assembled traces evicted by the retention bound.",
		func(emit func(telemetry.Labels, float64)) {
			c.mu.Lock()
			n := c.evicted
			c.mu.Unlock()
			emit(nil, float64(n))
		})
	c.self.GaugeFunc(MetricBrokers, "Known reporting brokers, by freshness.",
		func(emit func(telemetry.Labels, float64)) {
			ok, stale := c.brokerCounts()
			emit(telemetry.Labels{"status": "ok"}, float64(ok))
			emit(telemetry.Labels{"status": "stale"}, float64(stale))
		})
	telemetry.RegisterGoRuntime(c.self)
	return c
}

// Registry returns the collector's self-telemetry registry (its samples
// appear on the merged /metrics render tagged with Config.Instance).
func (c *Collector) Registry() *telemetry.Registry { return c.self }

// Accepted counts push bodies accepted so far (the /count value).
func (c *Collector) Accepted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accepted
}

// touchInstance records a push arrival from instance and returns its
// state, deriving the cadence estimate from inter-push gaps.
func (c *Collector) touchInstanceLocked(instance string) *instanceState {
	inst, ok := c.instances[instance]
	if !ok {
		inst = &instanceState{name: instance}
		c.instances[instance] = inst
		c.instOrder = append(c.instOrder, instance)
	}
	now := c.cfg.Now()
	if !inst.lastPush.IsZero() {
		// A pusher flush drains its whole spool in one burst — the metric
		// snapshot and the span batch land milliseconds apart. Those
		// intra-burst gaps are not the push cadence; only gaps past the
		// burst floor update the estimate.
		if gap := now.Sub(inst.lastPush); gap >= burstFloor {
			inst.gap = gap
		}
	}
	inst.lastPush = now
	inst.pushes++
	return inst
}

// staleAfter is instance's current staleness deadline: the configured
// override, else 2x its observed push cadence, else DefaultStaleAfter.
func (c *Collector) staleAfter(inst *instanceState) time.Duration {
	if c.cfg.StaleAfter > 0 {
		return c.cfg.StaleAfter
	}
	if inst.gap > 0 {
		return 2 * inst.gap
	}
	return DefaultStaleAfter
}

func (c *Collector) brokerCounts() (ok, stale int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	for _, name := range c.instOrder {
		inst := c.instances[name]
		if now.Sub(inst.lastPush) > c.staleAfter(inst) {
			stale++
		} else {
			ok++
		}
	}
	return ok, stale
}

// ingestSample is one parsed metric sample headed for the fleet state.
// counter marks an absolute cumulative reading (a counter, or a histogram's
// bucket/sum/count series); everything else is a gauge and never folds.
type ingestSample struct {
	family   string
	typ      string
	fullName string
	labelKey string // without instance; merged on apply
	value    float64
	counter  bool
}

// applySamples merges one push body's samples into the per-instance
// re-export state and folds counter movement into the fleet totals.
func (c *Collector) applySamples(instance string, samples []ingestSample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchInstanceLocked(instance)
	for _, s := range samples {
		fam, ok := c.fams[s.family]
		if !ok {
			fam = &familyState{name: s.family, typ: s.typ, index: make(map[string]int)}
			c.fams[s.family] = fam
			c.famOrder = append(c.famOrder, s.family)
		}
		labelKey := mergeInstanceKey(s.labelKey, instance)
		rowKey := s.fullName + "\x00" + labelKey
		var row *rowState
		if i, ok := fam.index[rowKey]; ok {
			row = fam.rows[i]
		}
		var delta float64
		if s.counter {
			// Fold the movement since the last push; a value going
			// backwards means the broker restarted, so the whole reading
			// is new movement.
			delta = s.value
			if row != nil && s.value >= row.value {
				delta = s.value - row.value
			}
		}
		if row == nil {
			row = &rowState{fullName: s.fullName, labelKey: labelKey}
			fam.index[rowKey] = len(fam.rows)
			fam.rows = append(fam.rows, row)
		}
		row.value = s.value
		if delta != 0 && strings.HasSuffix(s.fullName, "_total") {
			c.fleetAddLocked(s.fullName, delta)
		}
	}
}

// fleetAddLocked folds counter movement into the fleet-wide total for
// one family (only _total families fold — histogram series stay
// per-instance).
func (c *Collector) fleetAddLocked(fullName string, delta float64) {
	name := FleetPrefix + strings.TrimPrefix(fullName, "rebeca_")
	if _, ok := c.fleet[name]; !ok {
		c.fleetOrd = append(c.fleetOrd, name)
	}
	c.fleet[name] += delta
}

// ingestSpans merges one span batch into the assembled traces. The merge
// is idempotent: duplicated shipments and out-of-order arrival converge
// to the same trace (hop stamps keyed by broker, earliest stamp wins,
// worst latency wins, first reason sticks).
func (c *Collector) ingestSpans(header string, recs []telemetry.SpanExport) (applied int, firstErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	touched := make(map[string]bool)
	for _, rec := range recs {
		instance := rec.Instance
		if instance == "" {
			instance = header
		}
		if instance == "" {
			instance = "unknown"
		}
		id, err := telemetry.ParseNoteID(rec.Note)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("span record: %w", err)
			}
			continue
		}
		if !touched[instance] {
			touched[instance] = true
			c.touchInstanceLocked(instance)
		}
		c.instances[instance].spanRecords++
		tr := c.traceLocked(id)
		for _, h := range rec.Hops {
			if old, ok := tr.hops[h.Broker]; !ok || h.At.Before(old) {
				tr.hops[h.Broker] = h.At
			}
		}
		// A deployment instance is the comma-joined IDs of its in-process
		// brokers; every one of them counts as having reported.
		for _, b := range strings.Split(instance, ",") {
			if b = strings.TrimSpace(b); b != "" {
				tr.reporters[b] = struct{}{}
			}
		}
		if rec.LatencyMS > tr.latencyMS {
			tr.latencyMS = rec.LatencyMS
		}
		if tr.reason == "" {
			tr.reason = rec.Reason
		}
		tr.updated = c.cfg.Now()
		applied++
	}
	return applied, firstErr
}

// traceLocked returns (creating under the drop-oldest retention bound)
// the assembly state for id.
func (c *Collector) traceLocked(id message.NotificationID) *traceState {
	if tr, ok := c.traces[id]; ok {
		return tr
	}
	tr := &traceState{
		id:        id,
		hops:      make(map[string]time.Time),
		reporters: make(map[string]struct{}),
	}
	if len(c.ring) < c.cfg.TraceCap {
		c.ring = append(c.ring, id)
	} else {
		delete(c.traces, c.ring[c.head])
		c.evicted++
		c.ring[c.head] = id
		c.head = (c.head + 1) % c.cfg.TraceCap
	}
	c.traces[id] = tr
	return tr
}

// AssembledHop is one hop of a cross-broker trace, in stamp order.
type AssembledHop struct {
	Hop    int       `json:"hop"`
	Broker string    `json:"broker"`
	At     time.Time `json:"at"`
}

// AssembledTrace is the fleet view of one notification's journey: hops
// merged across every reporting process, ordered by stamp time. Partial
// flags a trace touching a broker that never reported to this collector
// — the path seen cannot be assumed complete.
type AssembledTrace struct {
	Note      string         `json:"note"`
	LatencyMS float64        `json:"latency_ms,omitempty"`
	Reason    string         `json:"reason,omitempty"`
	Partial   bool           `json:"partial"`
	Reporters []string       `json:"reporters"`
	Hops      []AssembledHop `json:"hops"`
}

// assemble renders one trace state (call with c.mu held).
func (c *Collector) assembleLocked(tr *traceState) AssembledTrace {
	out := AssembledTrace{
		Note:      tr.id.String(),
		LatencyMS: tr.latencyMS,
		Reason:    tr.reason,
		Reporters: make([]string, 0, len(tr.reporters)),
		Hops:      make([]AssembledHop, 0, len(tr.hops)),
	}
	for b := range tr.reporters {
		out.Reporters = append(out.Reporters, b)
	}
	sort.Strings(out.Reporters)
	for b, at := range tr.hops {
		out.Hops = append(out.Hops, AssembledHop{Broker: b, At: at})
	}
	sort.Slice(out.Hops, func(i, j int) bool {
		if !out.Hops[i].At.Equal(out.Hops[j].At) {
			return out.Hops[i].At.Before(out.Hops[j].At)
		}
		return out.Hops[i].Broker < out.Hops[j].Broker
	})
	for i := range out.Hops {
		out.Hops[i].Hop = i
	}
	if len(out.Hops) == 0 {
		out.Partial = true
	}
	for _, h := range out.Hops {
		if _, ok := tr.reporters[h.Broker]; !ok {
			out.Partial = true
			break
		}
	}
	return out
}

// Trace returns the assembled trace for id.
func (c *Collector) Trace(id message.NotificationID) (AssembledTrace, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.traces[id]
	if !ok {
		return AssembledTrace{}, false
	}
	return c.assembleLocked(tr), true
}

// TraceCount returns the number of traces retained.
func (c *Collector) TraceCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// Traces lists assembled traces newest-first (limit <= 0 lists all).
func (c *Collector) Traces(limit int) []AssembledTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]AssembledTrace, 0, limit)
	for i := 0; i < limit; i++ {
		var id message.NotificationID
		if len(c.ring) < c.cfg.TraceCap {
			id = c.ring[n-1-i]
		} else {
			id = c.ring[((c.head-1-i)%n+n)%n]
		}
		if tr, ok := c.traces[id]; ok {
			out = append(out, c.assembleLocked(tr))
		}
	}
	return out
}

// FleetBroker is one broker row of the /fleet status view.
type FleetBroker struct {
	Instance      string  `json:"instance"`
	Status        string  `json:"status"` // "ok" | "stale"
	LastPushAgoMS float64 `json:"last_push_ago_ms"`
	IntervalMS    float64 `json:"interval_ms,omitempty"` // observed cadence
	StaleAfterMS  float64 `json:"stale_after_ms"`
	Pushes        uint64  `json:"pushes"`
	SpanRecords   uint64  `json:"span_records"`
	// SpillDepth sums the broker's per-link store-backed spill queues
	// (rebeca_link_spill_depth) as of its last push — an operator watches
	// a partition backlog drain fleet-wide from here.
	SpillDepth float64 `json:"spill_depth,omitempty"`
}

// FleetStatus is the /fleet JSON body.
type FleetStatus struct {
	Brokers []FleetBroker `json:"brokers"`
	Stale   int           `json:"stale"`
	Traces  int           `json:"traces"`
}

// Fleet reports every known broker's push freshness: a broker silent
// past its deadline (StaleAfter, or 2x its observed push cadence) is
// marked stale — the NAT'd-broker equivalent of a failed scrape.
func (c *Collector) Fleet() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	out := FleetStatus{Brokers: make([]FleetBroker, 0, len(c.instOrder)), Traces: len(c.traces)}
	spill := make(map[string]float64)
	if fam, ok := c.fams[telemetry.MetricLinkSpillDepth]; ok {
		for _, row := range fam.rows {
			spill[labelValue(row.labelKey, "instance")] += row.value
		}
	}
	names := append([]string(nil), c.instOrder...)
	sort.Strings(names)
	for _, name := range names {
		inst := c.instances[name]
		deadline := c.staleAfter(inst)
		b := FleetBroker{
			Instance:      name,
			Status:        "ok",
			LastPushAgoMS: float64(now.Sub(inst.lastPush)) / float64(time.Millisecond),
			IntervalMS:    float64(inst.gap) / float64(time.Millisecond),
			StaleAfterMS:  float64(deadline) / float64(time.Millisecond),
			Pushes:        inst.pushes,
			SpanRecords:   inst.spanRecords,
			SpillDepth:    spill[name],
		}
		if now.Sub(inst.lastPush) > deadline {
			b.Status = "stale"
			out.Stale++
		}
		out.Brokers = append(out.Brokers, b)
	}
	return out
}

// labelValue extracts one label's value from a pre-rendered label key
// like {broker="A",peer="B",instance="c1"} ("" when absent).
func labelValue(key, label string) string {
	marker := label + `="`
	i := strings.Index(key, marker)
	if i < 0 {
		return ""
	}
	rest := key[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// mergeInstanceKey splices instance="..." into a pre-rendered label key,
// leaving keys that already carry an instance label untouched.
func mergeInstanceKey(key, instance string) string {
	if instance == "" {
		return key
	}
	if strings.Contains(key, `instance="`) {
		return key
	}
	extra := fmt.Sprintf("instance=%q", instance)
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}
