// Package telemetry is the middleware's operations subsystem: a
// lock-cheap metrics registry with a Prometheus text exposition renderer,
// a bounded span store reconstructing notification hop paths, a broker
// middleware stage feeding both, and an HTTP ops server (Ops) exposing
// /metrics, /healthz, /readyz, /trace, /config and pprof. Every live
// broker (and optionally the virtual-clock sim) hosts one via the facade's
// WithOps option or rebeca-broker's -ops flag.
//
// The registry splits metrics into two classes. Hot-path instruments —
// counters and histograms the publish/deliver path touches per event — are
// resolved once into handles backed by atomics, so recording costs a few
// uncontended atomic adds and no locks. Snapshot metrics — overlay link
// state, pending queues, WAL sizes, stream buffer depths — are pull-model
// collector funcs that run only when /metrics is scraped.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric sample's label set (name → value). Label values are
// escaped on render; label names must be valid Prometheus label names.
type Labels map[string]string

// metric family types, by Prometheus exposition TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing metric handle. Safe for concurrent
// use; reads and writes are single atomics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram handle. Observations are a bucket
// scan plus three atomics — no locks. Safe for concurrent use.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
	ex     []exemplarSlot // one per bucket incl. +Inf; nil until first exemplar
	exMu   sync.Mutex     // guards ex allocation and slot contents
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.add(v)
	h.count.Add(1)
}

// exemplarSlot remembers the worst observation that landed in one bucket
// since the window last reset (an exemplars render resets it).
type exemplarSlot struct {
	set   bool
	value float64
	note  string
}

// ObserveExemplar records one value and, when note is non-empty, keeps it
// as the bucket's exemplar if it is the worst observation this window.
// Exemplar upkeep takes a mutex, so call this only on already-traced
// paths (sampled or retro-captured notifications), never unconditionally
// on a hot path — plain Observe stays lock-free.
func (h *Histogram) ObserveExemplar(v float64, note string) {
	h.Observe(v)
	if note == "" {
		return
	}
	i := len(h.bounds) // +Inf slot
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]exemplarSlot, len(h.bounds)+1)
	}
	s := &h.ex[i]
	if !s.set || v > s.value {
		*s = exemplarSlot{set: true, value: v, note: note}
	}
	h.exMu.Unlock()
}

// takeExemplar returns bucket i's exemplar and resets its window.
func (h *Histogram) takeExemplar(i int) (note string, value float64, ok bool) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.ex == nil || i >= len(h.ex) || !h.ex[i].set {
		return "", 0, false
	}
	s := h.ex[i]
	h.ex[i] = exemplarSlot{}
	return s.note, s.value, true
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// LatencyBuckets is the default bucket layout for latency histograms, in
// seconds: 100µs to ~100s, roughly ×3 per step.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
}

// SizeBuckets is the default bucket layout for byte-size histograms:
// 64 B to 16 MiB, ×4 per step.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
}

// CollectFunc emits a collector's current samples. It runs under the
// registry's read path on every scrape and must not block.
type CollectFunc func(emit func(labels Labels, value float64))

// sample is one registered hot-path instrument.
type sample struct {
	labelKey string // pre-rendered {k="v",...} or ""
	counter  *Counter
	hist     *Histogram
}

// family groups every sample and collector sharing a metric name.
type family struct {
	name    string
	help    string
	typ     string
	bounds  []float64 // histogram families only
	order   []string  // label keys in registration order
	samples map[string]*sample
	collect []CollectFunc
}

// Registry holds a deployment's metric families. Handle resolution
// (Counter, Histogram, …) locks; recording through a resolved handle does
// not. One Registry is shared by every broker of a deployment.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, samples: make(map[string]*sample)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) sample(labels Labels) *sample {
	key := renderLabels(labels)
	s, ok := f.samples[key]
	if !ok {
		s = &sample{labelKey: key}
		f.samples[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter resolves (registering on first use) the counter sample with the
// given name and labels. The same name+labels always returns the same
// handle.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, typeCounter).sample(labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Histogram resolves (registering on first use) the histogram sample with
// the given name and labels. bounds are ascending upper bucket bounds;
// they must match across samples of one family (the first registration
// wins). A nil bounds takes LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typeHistogram)
	if f.bounds == nil {
		f.bounds = bounds
	}
	s := f.sample(labels)
	if s.hist == nil {
		s.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds))}
	}
	return s.hist
}

// GaugeFunc registers a pull-model gauge collector: fn runs on every
// scrape and emits the family's current samples. Several collectors may
// share one family (e.g. one per broker node).
func (r *Registry) GaugeFunc(name, help string, fn CollectFunc) {
	r.registerFunc(name, help, typeGauge, fn)
}

// CounterFunc registers a pull-model counter collector, for monotone
// values owned elsewhere (drop counts, WAL segment totals).
func (r *Registry) CounterFunc(name, help string, fn CollectFunc) {
	r.registerFunc(name, help, typeCounter, fn)
}

func (r *Registry) registerFunc(name, help, typ string, fn CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	f.collect = append(f.collect, fn)
}

// Total sums a family's current values across all label sets: counter and
// gauge samples plus everything its collectors emit; for a histogram
// family it returns the total observation count. Zero for unknown names.
func (r *Registry) Total(name string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	var total float64
	for _, s := range f.samples {
		switch {
		case s.counter != nil:
			total += float64(s.counter.Value())
		case s.hist != nil:
			total += float64(s.hist.Count())
		}
	}
	for _, fn := range f.collect {
		fn(func(_ Labels, v float64) { total += v })
	}
	return total
}

// HistogramStats returns a histogram family's aggregate sum and count
// across all label sets (zeroes for unknown or non-histogram names).
func (r *Registry) HistogramStats(name string) (sum float64, count uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok || f.typ != typeHistogram {
		return 0, 0
	}
	for _, s := range f.samples {
		if s.hist != nil {
			sum += s.hist.Sum()
			count += s.hist.Count()
		}
	}
	return sum, count
}

// exposPool recycles exposition buffers across scrapes: a 1k-family
// render is tens of KiB, and re-growing a fresh buffer per scrape is the
// dominant scrape cost (see BenchmarkWritePrometheus1k). bytes.Buffer —
// not strings.Builder, whose Reset discards its array because String()
// aliases it.
var exposPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families in registration order and samples in
// first-seen order, so scrapes are stable across calls.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WritePrometheusExemplars renders the exposition with exemplar trailers
// (`# {note="pub#seq"} value`) after histogram bucket lines — the
// /metrics?exemplars=1 view. Rendering consumes the exemplar window:
// each bucket's worst-observation slot resets. Non-standard in 0.0.4, so
// it never appears on a plain scrape.
func (r *Registry) WritePrometheusExemplars(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, exemplars bool) error {
	b := exposPool.Get().(*bytes.Buffer)
	b.Reset()
	defer exposPool.Put(b)
	r.mu.RLock()
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range f.order {
			s := f.samples[key]
			switch {
			case s.counter != nil:
				writeSample(b, f.name, s.labelKey, float64(s.counter.Value()))
			case s.hist != nil:
				writeHistogram(b, f, s, exemplars)
			}
		}
		for _, fn := range f.collect {
			fn(func(labels Labels, v float64) {
				writeSample(b, f.name, renderLabels(labels), v)
			})
		}
	}
	r.mu.RUnlock()
	_, err := w.Write(b.Bytes())
	return err
}

func writeSample(b *bytes.Buffer, name, labelKey string, v float64) {
	b.WriteString(name)
	b.WriteString(labelKey)
	b.WriteByte(' ')
	b.WriteString(FormatValue(v))
	b.WriteByte('\n')
}

// writeHistogram renders one histogram sample's cumulative buckets, sum
// and count. Snapshot order — buckets before count — keeps the invariant
// +Inf bucket == count even while writers race the scrape.
func writeHistogram(b *bytes.Buffer, f *family, s *sample, exemplars bool) {
	var cum uint64
	for i, bound := range f.bounds {
		cum += s.hist.counts[i].Load()
		writeBucket(b, f, s, mergeLabelKey(s.labelKey, "le", FormatValue(bound)), float64(cum), i, exemplars)
	}
	count := s.hist.Count()
	if count < cum {
		count = cum
	}
	writeBucket(b, f, s, mergeLabelKey(s.labelKey, "le", "+Inf"), float64(count), len(f.bounds), exemplars)
	writeSample(b, f.name+"_sum", s.labelKey, s.hist.Sum())
	writeSample(b, f.name+"_count", s.labelKey, float64(count))
}

// writeBucket renders one cumulative bucket line, with its exemplar
// trailer when requested and one is set.
func writeBucket(b *bytes.Buffer, f *family, s *sample, labelKey string, v float64, bucket int, exemplars bool) {
	b.WriteString(f.name)
	b.WriteString("_bucket")
	b.WriteString(labelKey)
	b.WriteByte(' ')
	b.WriteString(FormatValue(v))
	if exemplars {
		if note, value, ok := s.hist.takeExemplar(bucket); ok {
			fmt.Fprintf(b, " # {note=%q} %s", note, FormatValue(value))
		}
	}
	b.WriteByte('\n')
}

// renderLabels renders a label set as a stable `{k="v",…}` key (empty
// string for no labels); keys sort lexically so equal sets always collide.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q quoting matches the exposition format's label escaping
		// (backslash, quote, newline).
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabelKey splices one extra label into a pre-rendered label key
// (used for histogram le labels).
func mergeLabelKey(key, name, value string) string {
	extra := fmt.Sprintf("%s=%q", name, value)
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// FormatValue renders a sample value as the exposition writes it: integral
// values without a fraction, +Inf spelled out, the rest in %g.
func FormatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	return strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(s)
}
