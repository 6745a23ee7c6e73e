package telemetry

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Go runtime self-telemetry family names. Process health for the fleet
// view: a collector scraping the brokers sees scheduler and GC pressure
// next to the message-plane counters.
const (
	MetricGoGoroutines   = "rebeca_go_goroutines"
	MetricGoHeapBytes    = "rebeca_go_heap_bytes"
	MetricGoGCCycles     = "rebeca_go_gc_cycles_total"
	MetricGoGCPause      = "rebeca_go_gc_pause_seconds"
	MetricGoSchedLatency = "rebeca_go_sched_latency_seconds"
)

// runtime/metrics sample names the collector reads.
const (
	sampleGoroutines = "/sched/goroutines:goroutines"
	sampleHeapBytes  = "/memory/classes/heap/objects:bytes"
	sampleGCCycles   = "/gc/cycles/total:gc-cycles"
	sampleGCPauses   = "/gc/pauses:seconds"
	sampleSchedLat   = "/sched/latencies:seconds"
)

// runtimeRefresh bounds how often the runtime is re-sampled: one scrape
// touches several families, and each family's collector shares the same
// snapshot instead of re-reading the runtime per family.
const runtimeRefresh = 100 * time.Millisecond

// GoRuntimeCollector samples the Go runtime (runtime/metrics) for the
// registry's pull path: goroutine count, live heap bytes, GC cycles, and
// the GC-pause and scheduler-latency distributions as quantile gauges.
// One Read snapshot is shared across the families of a scrape. Safe for
// concurrent use.
type GoRuntimeCollector struct {
	mu      sync.Mutex
	samples []metrics.Sample
	last    time.Time
}

// NewGoRuntimeCollector builds a collector; RegisterGoRuntime is the
// usual entry point.
func NewGoRuntimeCollector() *GoRuntimeCollector {
	names := []string{sampleGoroutines, sampleHeapBytes, sampleGCCycles, sampleGCPauses, sampleSchedLat}
	c := &GoRuntimeCollector{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		c.samples[i].Name = n
	}
	metrics.Read(c.samples)
	return c
}

// refresh re-reads the runtime if the cached snapshot is older than
// runtimeRefresh, then hands the samples to fn under the lock.
func (c *GoRuntimeCollector) refresh(fn func(samples []metrics.Sample)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.last) >= runtimeRefresh {
		metrics.Read(c.samples)
		c.last = now
	}
	fn(c.samples)
}

// value extracts a numeric sample by name (0 when absent or non-numeric).
func runtimeValue(samples []metrics.Sample, name string) float64 {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
	}
	return 0
}

// runtimeQuantile reads quantile q off a runtime histogram sample: the
// upper edge of the first bucket whose cumulative count crosses q of the
// total (0 for an empty or absent histogram).
func runtimeQuantile(samples []metrics.Sample, name string, q float64) float64 {
	for _, s := range samples {
		if s.Name != name || s.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		h := s.Value.Float64Histogram()
		if h == nil {
			return 0
		}
		var total uint64
		for _, n := range h.Counts {
			total += n
		}
		if total == 0 {
			return 0
		}
		want := uint64(math.Ceil(q * float64(total)))
		if want < 1 {
			want = 1
		}
		var cum uint64
		for i, n := range h.Counts {
			cum += n
			if cum >= want {
				// Bucket i spans Buckets[i]..Buckets[i+1]; report the upper
				// edge, falling back to the lower one when it is +Inf.
				edge := h.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = h.Buckets[i]
				}
				if math.IsInf(edge, -1) {
					edge = 0
				}
				return edge
			}
		}
		return 0
	}
	return 0
}

// RegisterGoRuntime wires a process's runtime self-telemetry into reg:
//
//	rebeca_go_goroutines                 live goroutines
//	rebeca_go_heap_bytes                 live heap object bytes
//	rebeca_go_gc_cycles_total            completed GC cycles
//	rebeca_go_gc_pause_seconds{quantile} GC stop-the-world pause quantiles
//	rebeca_go_sched_latency_seconds{quantile} goroutine scheduling latency
//
// Every deployment's telemetry registry carries it, so each scrape
// reports process health, not just message-plane counters.
func RegisterGoRuntime(reg *Registry) *GoRuntimeCollector {
	c := NewGoRuntimeCollector()
	reg.GaugeFunc(MetricGoGoroutines, "Live goroutines in this process.",
		func(emit func(Labels, float64)) {
			c.refresh(func(s []metrics.Sample) { emit(nil, runtimeValue(s, sampleGoroutines)) })
		})
	reg.GaugeFunc(MetricGoHeapBytes, "Bytes of live heap objects.",
		func(emit func(Labels, float64)) {
			c.refresh(func(s []metrics.Sample) { emit(nil, runtimeValue(s, sampleHeapBytes)) })
		})
	reg.CounterFunc(MetricGoGCCycles, "Completed garbage-collection cycles.",
		func(emit func(Labels, float64)) {
			c.refresh(func(s []metrics.Sample) { emit(nil, runtimeValue(s, sampleGCCycles)) })
		})
	reg.GaugeFunc(MetricGoGCPause, "Garbage-collection pause quantiles, in seconds.",
		func(emit func(Labels, float64)) {
			c.refresh(func(s []metrics.Sample) {
				emit(Labels{"quantile": "0.5"}, runtimeQuantile(s, sampleGCPauses, 0.5))
				emit(Labels{"quantile": "0.99"}, runtimeQuantile(s, sampleGCPauses, 0.99))
			})
		})
	reg.GaugeFunc(MetricGoSchedLatency, "Goroutine scheduling latency quantiles, in seconds.",
		func(emit func(Labels, float64)) {
			c.refresh(func(s []metrics.Sample) {
				emit(Labels{"quantile": "0.5"}, runtimeQuantile(s, sampleSchedLat, 0.5))
				emit(Labels{"quantile": "0.99"}, runtimeQuantile(s, sampleSchedLat, 0.99))
			})
		})
	return c
}
