package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
)

// Metric names the middleware stage feeds. Exported as constants so the
// ops tooling (rebeca-broker's -stats line, tests, the CI golden-name
// check) can reference them without string drift.
const (
	MetricPublishes      = "rebeca_publishes_total"
	MetricDeliveries     = "rebeca_deliveries_total"
	MetricSubscribes     = "rebeca_subscribes_total"
	MetricLinkUps        = "rebeca_link_establishments_total"
	MetricLinkDowns      = "rebeca_link_failures_total"
	MetricMatchSeconds   = "rebeca_match_seconds"
	MetricE2ESeconds     = "rebeca_e2e_latency_seconds"
	MetricSpansRetained  = "rebeca_trace_spans_retained"
	MetricSpansEvicted   = "rebeca_trace_spans_evicted_total"
	MetricLinkState      = "rebeca_link_state"
	MetricLinkPending    = "rebeca_link_pending"
	MetricLinkDropped    = "rebeca_link_dropped_total"
	MetricFrameBytes     = "rebeca_codec_frame_bytes"
	MetricWALSegments    = "rebeca_wal_segments"
	MetricWALBytes       = "rebeca_wal_bytes"
	MetricStreamBuffered = "rebeca_stream_buffered"
	MetricStreamDropped  = "rebeca_stream_dropped_total"
	MetricRateLimited    = "rebeca_rate_limited_total"

	// Discovery subsystem (registry-driven membership + mesh routing).
	MetricDiscoveryPeers     = "rebeca_discovery_peers"
	MetricDiscoveryEvents    = "rebeca_discovery_events_total"
	MetricTreeRecomputations = "rebeca_spanning_tree_recomputations_total"

	// Fleet observability (trace sampling).
	MetricTraceSampled        = "rebeca_trace_sampled_total"
	MetricTraceRetro          = "rebeca_trace_retro_total"
	MetricTracePending        = "rebeca_trace_pending"
	MetricTracePendingEvicted = "rebeca_trace_pending_evicted_total"

	// Outage-proof links (store-backed spill for partition survival).
	MetricLinkSpillDepth   = "rebeca_link_spill_depth"
	MetricLinkSpillBytes   = "rebeca_link_spill_bytes"
	MetricLinkSpillDropped = "rebeca_link_spill_dropped_total"
)

// instruments is one broker's resolved hot-path handles.
type instruments struct {
	publishes    *Counter
	deliveries   *Counter
	subscribes   *Counter
	linkUps      *Counter
	linkDowns    *Counter
	matchSeconds *Histogram
	e2eSeconds   *Histogram
	mechanisms   [broker.NumMechanisms]*Counter
}

// MechanismMetric is the counter family a mechanism event feeds, named
// after the event (core.wasted → rebeca_core_wasted_total).
func MechanismMetric(ev broker.Mechanism) string {
	return "rebeca_" + strings.ReplaceAll(ev.String(), ".", "_") + "_total"
}

// Middleware is the broker-chain stage feeding the registry (and, when
// hop tracing is on, the sampler's span store): publish/deliver/subscribe
// counters, match- and end-to-end-latency histograms, link transition and
// session-mechanism counters, and the per-broker hop stamp every transit
// broker appends to a traced notification's Path. One instance is shared
// by every broker of a deployment; handles resolve once per broker, after
// which the hooks cost a few atomic adds. Safe for concurrent use.
type Middleware struct {
	broker.PassMiddleware
	reg   *Registry
	smp   *Sampler
	trace atomic.Bool

	mu  sync.Mutex
	ins sync.Map // message.NodeID -> *instruments
}

// NewMiddleware returns a telemetry stage recording into reg. Hop tracing
// needs a sampler (SetSampler) before EnableHopTrace can turn it on.
func NewMiddleware(reg *Registry) *Middleware {
	return &Middleware{reg: reg}
}

// Registry returns the registry this stage records into.
func (t *Middleware) Registry() *Registry { return t.reg }

// SetSampler attaches the trace sampler, the one path into the span store:
// the 1-in-N sample (rate 1 traces everything) is stamped and recorded up
// front, while unsampled paths park in its pending ring for retro-capture
// on slow or dropped verdicts. Call it before the stage is installed on a
// broker.
func (t *Middleware) SetSampler(s *Sampler) { t.smp = s }

// EnableHopTrace toggles hop stamping at runtime (the /config trace knob).
// While on, every broker appends its HopStamp to sampled publishes crossing
// the chain and records the accumulated path into the span store. It stays
// off until a sampler is attached.
func (t *Middleware) EnableHopTrace(on bool) { t.trace.Store(on && t.smp != nil) }

// HopTraceEnabled reports whether hop stamping is on.
func (t *Middleware) HopTraceEnabled() bool { return t.trace.Load() }

// at resolves a broker's instruments, registering them on first use.
func (t *Middleware) at(b message.NodeID) *instruments {
	if v, ok := t.ins.Load(b); ok {
		return v.(*instruments)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.ins.Load(b); ok {
		return v.(*instruments)
	}
	labels := Labels{"broker": string(b)}
	ins := &instruments{
		publishes:  t.reg.Counter(MetricPublishes, "Notifications routed through the broker (every overlay hop counts).", labels),
		deliveries: t.reg.Counter(MetricDeliveries, "Local client deliveries.", labels),
		subscribes: t.reg.Counter(MetricSubscribes, "Subscription installations.", labels),
		linkUps:    t.reg.Counter(MetricLinkUps, "Overlay links reaching established.", labels),
		linkDowns:  t.reg.Counter(MetricLinkDowns, "Established overlay links lost.", labels),
		matchSeconds: t.reg.Histogram(MetricMatchSeconds,
			"Wall time one publish spends in matching and routing at this broker.", LatencyBuckets, labels),
		e2eSeconds: t.reg.Histogram(MetricE2ESeconds,
			"Publish-to-delivery latency observed at delivery (virtual time under the sim).", LatencyBuckets, labels),
	}
	for ev := range ins.mechanisms {
		m := broker.Mechanism(ev)
		ins.mechanisms[ev] = t.reg.Counter(MechanismMetric(m), "Mechanism events "+m.String()+" (see broker.Mechanism).", labels)
	}
	t.ins.Store(b, ins)
	return ins
}

// BrokerStats is one broker's event counts, read back from the instruments
// the hooks feed.
type BrokerStats struct {
	Publishes, Deliveries, Subscribes uint64
	// E2ESeconds is the sum of the end-to-end latency histogram.
	E2ESeconds float64
}

// Stats reads every broker's counters out of the handles /metrics renders
// — the programmatic twin of a scrape.
func (t *Middleware) Stats() map[message.NodeID]BrokerStats {
	out := make(map[message.NodeID]BrokerStats)
	t.ins.Range(func(b, v any) bool {
		ins := v.(*instruments)
		out[b.(message.NodeID)] = BrokerStats{
			Publishes:  ins.publishes.Value(),
			Deliveries: ins.deliveries.Value(),
			Subscribes: ins.subscribes.Value(),
			E2ESeconds: ins.e2eSeconds.Sum(),
		}
		return true
	})
	return out
}

// OnPublish implements broker.PublishInterceptor: count, time the rest of
// the chain (matching + routing), and — with hop tracing on — stamp this
// broker onto the notification's path. The stamp mutates the broker-local
// copy, which the broker forwards to its peers, so the path accumulates
// across hops; the codec propagates it on version-2 binary links and
// strips it for version-1 peers. Being a publish stage, it makes every
// broker it is installed on build each publish's Notification.
func (t *Middleware) OnPublish(b *broker.Broker, _ message.NodeID, n *message.Notification, next func()) {
	ins := t.at(b.ID())
	ins.publishes.Inc()
	if t.trace.Load() && n != nil {
		self := b.ID()
		first := len(n.Path) == 0 || n.Path[len(n.Path)-1].Broker != self
		switch s := t.smp; {
		case s.Sampled(n.ID):
			// In the sample: stamp and retain up front. Every broker on
			// the path reaches the same verdict from the ID alone, so the
			// trail accumulates with no wire bits.
			if first {
				n.Path = append(n.Path, message.HopStamp{Broker: self, At: b.Now()})
				s.sampled.Add(1)
			}
			s.spans.Record(n.ID, n.Path)
		case first:
			// Not sampled: leave the wire untouched, park the stamp so a
			// late slow/drop verdict can still retro-capture the path.
			s.Observe(n.ID, message.HopStamp{Broker: self, At: b.Now()})
		}
	}
	start := time.Now()
	next()
	ins.matchSeconds.Observe(time.Since(start).Seconds())
}

// OnDeliver implements broker.Middleware: count and observe end-to-end
// latency on the broker's clock. Traced deliveries leave the notification
// ID as the latency histogram's exemplar (the /metrics?exemplars=1 →
// /trace cross-link), and a delivery over the sampler's slow threshold
// retro-captures its parked path regardless of the dice.
func (t *Middleware) OnDeliver(b *broker.Broker, _ message.NodeID, n *message.Notification, _ []message.SubID, next func()) {
	ins := t.at(b.ID())
	ins.deliveries.Inc()
	if n != nil && !n.Published.IsZero() {
		if lat := b.Now().Sub(n.Published); lat > 0 {
			sec := lat.Seconds()
			switch s := t.smp; {
			case !t.trace.Load():
				ins.e2eSeconds.Observe(sec)
			case s.Sampled(n.ID):
				ins.e2eSeconds.ObserveExemplar(sec, n.ID.String())
				s.spans.Observe(n.ID, lat)
				if s.SlowerThan(lat) {
					s.MarkSlow(n.ID, lat)
				}
			case s.SlowerThan(lat):
				s.MarkSlow(n.ID, lat)
				ins.e2eSeconds.ObserveExemplar(sec, n.ID.String())
			default:
				ins.e2eSeconds.Observe(sec)
			}
		}
	}
	next()
}

// OnDrop implements the broker.DropObserver extension: a notification
// hitting a drop branch (flood fallback, rate limiting) is a path that
// always matters — retro-capture it with its reason.
func (t *Middleware) OnDrop(b *broker.Broker, id message.NotificationID, reason string) {
	if t.trace.Load() {
		t.smp.MarkDropped(id, reason)
	}
}

// OnSubscribe implements broker.Middleware.
func (t *Middleware) OnSubscribe(b *broker.Broker, _ message.NodeID, _ *proto.Subscription, next func()) {
	t.at(b.ID()).subscribes.Inc()
	next()
}

// OnLinkChange implements the broker.LinkObserver extension: link
// transitions roll into per-broker counters.
func (t *Middleware) OnLinkChange(b *broker.Broker, ev overlay.Event) {
	ins := t.at(b.ID())
	switch {
	case ev.To == overlay.StateEstablished:
		ins.linkUps.Inc()
	case ev.From == overlay.StateEstablished:
		ins.linkDowns.Inc()
	}
}

// OnMechanism implements the broker.MechanismObserver extension: the
// session layers' events roll into per-broker counters.
func (t *Middleware) OnMechanism(b *broker.Broker, ev broker.Mechanism, n int) {
	t.at(b.ID()).mechanisms[ev].Add(uint64(n))
}

// RegisterSpanMetrics exposes the span store's occupancy on the registry.
func RegisterSpanMetrics(reg *Registry, spans *SpanStore) {
	reg.GaugeFunc(MetricSpansRetained, "Notification hop paths currently retained by the span store.",
		func(emit func(Labels, float64)) { emit(nil, float64(spans.Len())) })
	reg.CounterFunc(MetricSpansEvicted, "Notification hop paths evicted by the span store's capacity bound.",
		func(emit func(Labels, float64)) { emit(nil, float64(spans.Evicted())) })
}

// RegisterSamplerMetrics exposes a sampler's decisions on the registry:
// how many notifications won the 1-in-N roll here, retro-captures by
// reason, and the pending-ring occupancy.
func RegisterSamplerMetrics(reg *Registry, s *Sampler) {
	reg.CounterFunc(MetricTraceSampled, "Notifications stamped by the 1-in-N trace sample at this broker.",
		func(emit func(Labels, float64)) { emit(nil, float64(s.SampledCount())) })
	reg.CounterFunc(MetricTraceRetro, "Trace spans retro-captured outside the sample, by reason.",
		func(emit func(Labels, float64)) {
			for reason, n := range s.RetroCounts() {
				emit(Labels{"reason": reason}, float64(n))
			}
		})
	reg.GaugeFunc(MetricTracePending, "Hop paths parked in the sampler's pending-decision ring.",
		func(emit func(Labels, float64)) { emit(nil, float64(s.PendingLen())) })
	reg.CounterFunc(MetricTracePendingEvicted, "Parked hop paths evicted by the pending-ring bound before a verdict (retro-capture lost them).",
		func(emit func(Labels, float64)) { emit(nil, float64(s.PendingDropped())) })
}

// compile-time interface checks
var (
	_ broker.PublishInterceptor = (*Middleware)(nil)
	_ broker.LinkObserver       = (*Middleware)(nil)
	_ broker.DropObserver       = (*Middleware)(nil)
	_ broker.MechanismObserver  = (*Middleware)(nil)
)
