// Package collector implements rebeca's fleet view: it reads the brokers'
// discovery registry, scrapes every registered ops endpoint (GET /metrics,
// the Prometheus text exposition 0.0.4, and GET /trace?since=<cursor>,
// the spans changed since its last read), assembles the partial
// per-process hop traces into cross-broker end-to-end traces, folds
// counter movement into fleet-wide totals, and re-exports the whole fleet
// as one Prometheus /metrics endpoint with per-broker instance labels
// preserved.
//
// The collector is deliberately stateless across restarts: within one
// scrape interval the fleet view rebuilds itself from the registry.
package collector

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rebeca/internal/discovery"
	"rebeca/internal/message"
	"rebeca/internal/telemetry"
)

// Collector self-telemetry family names (exported on its own /metrics
// next to the ingested fleet families).
const (
	MetricScrapes       = "rebeca_collector_scrapes_total"
	MetricSpanRecords   = "rebeca_collector_span_records_total"
	MetricTraces        = "rebeca_collector_traces"
	MetricTracesEvicted = "rebeca_collector_traces_evicted_total"
	MetricBrokers       = "rebeca_collector_brokers"
)

// FleetPrefix heads every folded fleet-total family name.
const FleetPrefix = "rebeca_fleet_"

// DefaultTraceCap bounds assembled traces retained (drop-oldest).
const DefaultTraceCap = 4096

// DefaultInterval is the scrape round cadence when Config.Interval is 0.
const DefaultInterval = 15 * time.Second

// Config configures a Collector.
type Config struct {
	// Instance labels the collector's own self-telemetry samples on the
	// merged /metrics render (default "collector").
	Instance string
	// Registry lists the brokers to scrape: every entry with an Ops
	// address. Scrape and Run need it.
	Registry discovery.Registry
	// Interval is the cadence of Run's scrape rounds (default
	// DefaultInterval).
	Interval time.Duration
	// TraceCap bounds assembled traces retained (default DefaultTraceCap).
	TraceCap int
	// Logger receives a line each time a broker's scrapes start or stop
	// failing (nil = silent).
	Logger *slog.Logger
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

// instanceState is everything known about one scraped ops endpoint: a
// broker, or the brokers of an in-process deployment sharing it.
type instanceState struct {
	// name is the instance label: the endpoint's brokers' joined IDs, as
	// the registry last listed them.
	name string
	// ok: the last round listed the instance and its scrape succeeded.
	ok          bool
	lastErr     string
	scrapes     uint64
	spanRecords uint64
	// cursor resumes /trace?since= on the span store stamped start.
	cursor uint64
	start  int64
}

// traceState is one cross-broker trace under assembly: the union of hop
// stamps read from every reporting process, keyed by broker so repeated
// reads merge idempotently (earliest stamp wins).
type traceState struct {
	id        message.NotificationID
	hops      map[string]time.Time
	reporters map[string]struct{}
	latencyMS float64
	reason    string
}

// Collector scrapes the brokers its registry lists and serves the
// assembled fleet view. Safe for concurrent use.
type Collector struct {
	cfg    Config
	self   *telemetry.Registry
	client *http.Client

	scrapesOK   *telemetry.Counter
	scrapesErr  *telemetry.Counter
	spanRecords *telemetry.Counter

	mu        sync.Mutex
	instances map[string]*instanceState // by ops endpoint
	fams      map[string]*familyState
	famOrder  []string
	fleet     map[string]float64
	fleetOrd  []string
	traces    map[message.NotificationID]*traceState
	ring      []message.NotificationID
	head      int
	evicted   uint64
}

// New builds a collector. Handler serves it.
func New(cfg Config) *Collector {
	if cfg.Instance == "" {
		cfg.Instance = "collector"
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = DefaultTraceCap
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	c := &Collector{
		cfg:       cfg,
		self:      telemetry.NewRegistry(),
		client:    &http.Client{Timeout: 5 * time.Second},
		instances: make(map[string]*instanceState),
		fams:      make(map[string]*familyState),
		fleet:     make(map[string]float64),
		traces:    make(map[message.NotificationID]*traceState),
	}
	c.scrapesOK = c.self.Counter(MetricScrapes, "Broker ops endpoint scrapes, by result.", telemetry.Labels{"result": "ok"})
	c.scrapesErr = c.self.Counter(MetricScrapes, "Broker ops endpoint scrapes, by result.", telemetry.Labels{"result": "error"})
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

func (c *Collector) brokerCounts() (ok, stale int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, inst := range c.instances {
		if inst.ok {
			ok++
		} else {
			stale++
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

// applySamples merges one scraped body's samples into the per-instance
// re-export state and folds counter movement into the fleet totals.
func (c *Collector) applySamples(instance string, samples []ingestSample) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
			// Fold the movement since the last scrape; a value going
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

// renameLocked moves the rows labeled instance=old to instance=name, fold
// baselines and all, so an endpoint whose brokers change is not folded a
// second time under its new name. A row already under the new name — left
// by an endpoint that name has moved away from — gives way.
func (c *Collector) renameLocked(old, name string) {
	from, to := fmt.Sprintf("instance=%q}", old), fmt.Sprintf("instance=%q}", name)
	for _, fam := range c.fams {
		moved := make(map[*rowState]bool)
		for _, row := range fam.rows {
			// mergeInstanceKey puts the label last.
			if k, ok := strings.CutSuffix(row.labelKey, from); ok && (strings.HasSuffix(k, "{") || strings.HasSuffix(k, ",")) {
				row.labelKey = k + to
				moved[row] = true
			}
		}
		if len(moved) == 0 {
			continue
		}
		rows := make([]*rowState, 0, len(fam.rows))
		index := make(map[string]int, len(fam.rows))
		for _, row := range fam.rows {
			key := row.fullName + "\x00" + row.labelKey
			if i, ok := index[key]; ok {
				if moved[row] {
					rows[i] = row
				}
				continue
			}
			index[key] = len(rows)
			rows = append(rows, row)
		}
		fam.rows, fam.index = rows, index
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

// ingestSpans merges the spans one instance served into the assembled
// traces; a span whose note does not parse is skipped. The merge is
// idempotent: repeated reads and out-of-order arrival converge to the
// same trace (hop stamps keyed by broker, earliest stamp wins, worst
// latency wins, first reason sticks).
func (c *Collector) ingestSpans(instance string, spans []telemetry.TraceSpan) (applied int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range spans {
		id, err := telemetry.ParseNoteID(rec.Note)
		if err != nil {
			continue
		}
		tr := c.traceLocked(id)
		for _, h := range rec.Hops {
			if old, ok := tr.hops[h.Broker]; !ok || h.At.Before(old) {
				tr.hops[h.Broker] = h.At
			}
		}
		// An instance sharing one endpoint is the comma-joined IDs of its
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
		applied++
	}
	return applied
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
// flags a trace touching a broker that has not reported this span to the
// collector — the path seen cannot be assumed complete.
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
	Instance string `json:"instance"`
	Ops      string `json:"ops"`
	Status   string `json:"status"` // "ok" | "stale"
	// Error says why a stale broker is stale: its last scrape's failure,
	// or that the registry stopped listing it.
	Error       string `json:"error,omitempty"`
	Scrapes     uint64 `json:"scrapes"` // successful
	SpanRecords uint64 `json:"span_records"`
	// SpillDepth sums the broker's per-link store-backed spill queues
	// (rebeca_link_spill_depth) as of its last scrape — an operator
	// watches a partition backlog drain fleet-wide from here.
	SpillDepth float64 `json:"spill_depth,omitempty"`
}

// FleetStatus is the /fleet JSON body.
type FleetStatus struct {
	Brokers []FleetBroker `json:"brokers"`
	Stale   int           `json:"stale"`
	Traces  int           `json:"traces"`
}

// Fleet reports every broker the collector has scraped: stale exactly
// when its last round failed or the registry stopped listing it.
func (c *Collector) Fleet() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := FleetStatus{Brokers: make([]FleetBroker, 0, len(c.instances)), Traces: len(c.traces)}
	spill := make(map[string]float64)
	if fam, ok := c.fams[telemetry.MetricLinkSpillDepth]; ok {
		for _, row := range fam.rows {
			spill[labelValue(row.labelKey, "instance")] += row.value
		}
	}
	for ops, inst := range c.instances {
		b := FleetBroker{
			Instance:    inst.name,
			Ops:         ops,
			Status:      "ok",
			Scrapes:     inst.scrapes,
			SpanRecords: inst.spanRecords,
			SpillDepth:  spill[inst.name],
		}
		if !inst.ok {
			b.Status, b.Error = "stale", inst.lastErr
			out.Stale++
		}
		out.Brokers = append(out.Brokers, b)
	}
	sort.Slice(out.Brokers, func(i, j int) bool {
		a, b := out.Brokers[i], out.Brokers[j]
		return a.Instance < b.Instance || a.Instance == b.Instance && a.Ops < b.Ops
	})
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
