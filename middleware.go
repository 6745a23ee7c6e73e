package rebeca

import (
	"math"
	"sync"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/telemetry"
)

// Middleware chain types, re-exported from the broker so downstream code
// can implement stages without reaching into internal packages. See
// Middleware's documentation for the chain's execution order and
// short-circuit semantics.
type (
	// Middleware is one stage in a broker's ordered extension chain: the
	// delivery and subscription hooks every stage has. The publish hook
	// and the rest are optional interfaces a stage implements as well.
	Middleware = broker.Middleware
	// PassMiddleware is a no-op stage to embed for partial implementations.
	// It has no OnPublish: a stage becomes a publish stage by defining one.
	PassMiddleware = broker.PassMiddleware
	// PublishInterceptor is the optional publish hook (OnPublish). It is
	// the one hook with a cost beyond the call: a broker with a publish
	// stage builds a Notification for every publish it routes, where one
	// without forwards the note as the encoded bytes it received.
	PublishInterceptor = broker.PublishInterceptor
	// MessageInterceptor is the optional raw-message hook.
	MessageInterceptor = broker.MessageInterceptor
	// LinkObserver is the optional overlay link-transition hook.
	LinkObserver = broker.LinkObserver
	// LinkEvent is one overlay link state transition.
	LinkEvent = overlay.Event
	// LinkState is an overlay link's lifecycle state.
	LinkState = overlay.State
	// LinkInfo is an overlay link's full introspection snapshot: state,
	// pending backlog, store-backed spill depth/bytes, and drop counters.
	LinkInfo = overlay.LinkInfo
	// Broker is the broker a middleware stage is attached to.
	Broker = broker.Broker
	// SubscriptionInfo pairs a filter with its end-to-end identity (the
	// OnSubscribe hook's payload). The client-facing *Subscription handle
	// returned by Port.Subscribe is a different type — see subscription.go.
	SubscriptionInfo = proto.Subscription
)

// Overlay link states (see the overlay subsystem in CHANGES.md): a
// broker↔broker link is connecting until its first establishment,
// handshaking while the routing re-sync runs, established while carrying
// traffic, and degraded after a failure until the backoff redial heals it.
const (
	LinkClosed      = overlay.StateClosed
	LinkConnecting  = overlay.StateConnecting
	LinkHandshaking = overlay.StateHandshaking
	LinkEstablished = overlay.StateEstablished
	LinkDegraded    = overlay.StateDegraded
)

// --- Metrics -------------------------------------------------------------

// BrokerMetrics is one broker's activity as the telemetry stage counted it.
type BrokerMetrics struct {
	// Publishes counts notifications routed through the broker (every
	// overlay hop counts at the broker it transits).
	Publishes int
	// Deliveries counts local client deliveries.
	Deliveries int
	// Subscribes counts subscription installations.
	Subscribes int
	// DeliveryLatency sums publish-to-delivery latency over Deliveries
	// (virtual time under System, wall time under Live). It is read back
	// from a histogram that sums float seconds, so it is exact to rounding,
	// not to the nanosecond.
	DeliveryLatency time.Duration
}

// AvgDeliveryLatency returns the mean publish-to-delivery latency.
func (m BrokerMetrics) AvgDeliveryLatency() time.Duration {
	if m.Deliveries == 0 {
		return 0
	}
	return m.DeliveryLatency / time.Duration(m.Deliveries)
}

// Metrics is a built-in middleware giving programmatic access to the
// per-broker publish, delivery and subscription counts and delivery
// latency. It counts nothing itself: it is a read-only view over the
// telemetry stage (internal/telemetry) — the one implementation that counts
// these events — so Snapshot and a /metrics scrape cannot disagree. In a
// deployment that also has WithOps or WithLogging, the stage
// behind the view is the deployment's only telemetry stage and its registry
// the one /metrics serves. Use one instance per deployment; it is shared by
// every broker of it and safe for concurrent use, under both System and
// Live.
//
// Counts reflect the stage's chain position: installed via WithMiddleware
// it runs inside the session layers and therefore observes exactly the
// events they pass through (virtual-client buffering and ghost interception
// are not counted as deliveries). Overlay link states are the deployment's
// to report (LinkStates, LinkInfo).
type Metrics struct {
	stage *telemetry.Middleware
}

// NewMetrics returns a metrics view over a telemetry stage of its own.
func NewMetrics() *Metrics {
	return &Metrics{stage: telemetry.NewMiddleware(telemetry.NewRegistry())}
}

// OnPublish implements PublishInterceptor.
func (m *Metrics) OnPublish(b *Broker, from NodeID, n *Notification, next func()) {
	m.stage.OnPublish(b, from, n, next)
}

// OnDeliver implements Middleware.
func (m *Metrics) OnDeliver(b *Broker, port NodeID, n *Notification, subs []SubID, next func()) {
	m.stage.OnDeliver(b, port, n, subs, next)
}

// OnSubscribe implements Middleware.
func (m *Metrics) OnSubscribe(b *Broker, from NodeID, sub *SubscriptionInfo, next func()) {
	m.stage.OnSubscribe(b, from, sub, next)
}

// OnLinkChange implements the LinkObserver extension.
func (m *Metrics) OnLinkChange(b *Broker, ev LinkEvent) { m.stage.OnLinkChange(b, ev) }

// OnDrop implements the broker's DropObserver extension.
func (m *Metrics) OnDrop(b *Broker, id NotificationID, reason string) { m.stage.OnDrop(b, id, reason) }

// OnMechanism implements the broker's MechanismObserver extension.
func (m *Metrics) OnMechanism(b *Broker, ev broker.Mechanism, n int) { m.stage.OnMechanism(b, ev, n) }

// Snapshot returns the per-broker counters.
func (m *Metrics) Snapshot() map[NodeID]BrokerMetrics {
	stats := m.stage.Stats()
	out := make(map[NodeID]BrokerMetrics, len(stats))
	for id, s := range stats {
		out[id] = BrokerMetrics{
			Publishes:       int(s.Publishes),
			Deliveries:      int(s.Deliveries),
			Subscribes:      int(s.Subscribes),
			DeliveryLatency: time.Duration(math.Round(s.E2ESeconds * float64(time.Second))),
		}
	}
	return out
}

// Totals aggregates the counters across brokers.
func (m *Metrics) Totals() BrokerMetrics {
	var t BrokerMetrics
	for _, bm := range m.Snapshot() {
		t.Publishes += bm.Publishes
		t.Deliveries += bm.Deliveries
		t.Subscribes += bm.Subscribes
		t.DeliveryLatency += bm.DeliveryLatency
	}
	return t
}

// --- Tracer --------------------------------------------------------------

// TraceEvent is one observed hook-point crossing.
type TraceEvent struct {
	// At is the broker's (virtual or wall) time.
	At time.Time
	// Broker is where the event was observed.
	Broker NodeID
	// Hook names the hook point: "publish", "deliver", "subscribe" or
	// "link".
	Hook string
	// Node is the immediate sender (publish, subscribe), the local
	// destination port (deliver), or the link's peer broker (link).
	Node NodeID
	// Note identifies the notification (publish, deliver).
	Note NotificationID
	// Sub identifies the subscription (subscribe).
	Sub SubID
	// Info carries the transition summary of a link event
	// ("established <- handshaking: …").
	Info string
}

// Tracer is a built-in middleware handing every publish, delivery,
// subscription and overlay link transition crossing the chain to a
// callback, synchronously — what rebeca-broker -trace prints and what a test
// harness collects. It retains nothing: bounded, eviction-counted retention
// of notification paths is the telemetry span store's job (WithOps' /trace),
// and link transitions are retained as the overlay subsystem's log lines
// (WithLogging). Observe-only (always passes through).
type Tracer struct {
	PassMiddleware
	fn func(TraceEvent)
}

// NewTracer returns a tracing stage calling fn for every event as it
// happens. fn runs inside the broker's event loop — keep it cheap — and,
// under Live, concurrently from several brokers. A nil fn observes nothing.
func NewTracer(fn func(TraceEvent)) *Tracer {
	if fn == nil {
		fn = func(TraceEvent) {}
	}
	return &Tracer{fn: fn}
}

// OnPublish implements PublishInterceptor.
func (t *Tracer) OnPublish(b *Broker, from NodeID, n *Notification, next func()) {
	t.fn(TraceEvent{At: b.Now(), Broker: b.ID(), Hook: "publish", Node: from, Note: n.ID})
	next()
}

// OnDeliver implements Middleware. A delivery matching several
// subscriptions reports one event per subscription identity, so per-sub
// delivery audits see every match.
func (t *Tracer) OnDeliver(b *Broker, port NodeID, n *Notification, subs []SubID, next func()) {
	e := TraceEvent{At: b.Now(), Broker: b.ID(), Hook: "deliver", Node: port, Note: n.ID}
	if len(subs) == 0 {
		t.fn(e)
	}
	for _, sub := range subs {
		e.Sub = sub
		t.fn(e)
	}
	next()
}

// OnSubscribe implements Middleware.
func (t *Tracer) OnSubscribe(b *Broker, from NodeID, sub *SubscriptionInfo, next func()) {
	t.fn(TraceEvent{At: b.Now(), Broker: b.ID(), Hook: "subscribe", Node: from, Sub: sub.ID})
	next()
}

// OnLinkChange implements the LinkObserver extension: overlay link
// transitions join the trace as "link" events.
func (t *Tracer) OnLinkChange(b *Broker, ev LinkEvent) {
	t.fn(TraceEvent{
		At: ev.At, Broker: b.ID(), Hook: "link", Node: ev.Peer,
		Info: ev.To.String() + " <- " + ev.From.String() + ": " + ev.Reason,
	})
}

// --- RateLimiter ---------------------------------------------------------

// RateLimiter is a built-in middleware enforcing a per-broker token-bucket
// limit on client publish ingress. Publishes arriving from a broker's local
// ports beyond the configured rate are dropped (short-circuited) at that
// broker; transit traffic from peer brokers is never limited, so one
// broker's hot publisher cannot starve routed notifications. Time comes
// from the broker (virtual under System, wall under Live). Safe for
// concurrent use.
type RateLimiter struct {
	PassMiddleware

	mu        sync.Mutex
	rate      float64 // tokens per second
	burst     float64
	buckets   map[NodeID]*tokenBucket
	dropped   int
	droppedBy map[NodeID]int
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter returns a limiter admitting perSecond publishes per broker
// with bursts up to burst. burst is raised to at least 1; a perSecond of
// zero or less disables the limiter (everything is admitted) rather than
// silently dropping all traffic once the burst is spent.
func NewRateLimiter(perSecond float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:      perSecond,
		burst:     float64(burst),
		buckets:   make(map[NodeID]*tokenBucket),
		droppedBy: make(map[NodeID]int),
	}
}

// OnPublish implements PublishInterceptor: take a token or drop the
// publish, reporting the drop to the chain's DropObserver stages (the
// telemetry stage retro-captures its trace).
func (r *RateLimiter) OnPublish(b *Broker, from NodeID, n *Notification, next func()) {
	if !b.HasPort(from) {
		next() // transit traffic was already admitted at its ingress broker
		return
	}
	now := b.Now()
	r.mu.Lock()
	if r.rate <= 0 {
		r.mu.Unlock()
		next() // disabled
		return
	}
	tb, ok := r.buckets[b.ID()]
	if !ok {
		tb = &tokenBucket{tokens: r.burst, last: now}
		r.buckets[b.ID()] = tb
	}
	if dt := now.Sub(tb.last); dt > 0 {
		tb.tokens += r.rate * dt.Seconds()
		if tb.tokens > r.burst {
			tb.tokens = r.burst
		}
		tb.last = now
	}
	admit := tb.tokens >= 1
	if admit {
		tb.tokens--
	} else {
		r.dropped++
		r.droppedBy[b.ID()]++
	}
	r.mu.Unlock()
	if admit {
		next()
	} else {
		b.NotifyDrop(n.ID, "rate-limited")
	}
}

// SetLimit retunes the limiter at runtime (the ops /config knobs): the
// next publish at every broker sees the new rate and burst. The same
// conventions as NewRateLimiter apply — burst is raised to at least 1,
// perSecond <= 0 disables the limiter.
func (r *RateLimiter) SetLimit(perSecond float64, burst int) {
	if burst < 1 {
		burst = 1
	}
	r.mu.Lock()
	r.rate = perSecond
	r.burst = float64(burst)
	for _, tb := range r.buckets {
		if tb.tokens > r.burst {
			tb.tokens = r.burst
		}
	}
	r.mu.Unlock()
}

// Limit returns the current rate and burst.
func (r *RateLimiter) Limit() (perSecond float64, burst int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rate, int(r.burst)
}

// Dropped reports publishes rejected across all brokers.
func (r *RateLimiter) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DroppedPerBroker snapshots the rejected-publish counts by broker (the
// telemetry registry's rate-limited collector reads it).
func (r *RateLimiter) DroppedPerBroker() map[NodeID]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[NodeID]int, len(r.droppedBy))
	for id, n := range r.droppedBy {
		out[id] = n
	}
	return out
}

// compile-time interface checks
var (
	_ PublishInterceptor       = (*Metrics)(nil)
	_ PublishInterceptor       = (*Tracer)(nil)
	_ PublishInterceptor       = (*RateLimiter)(nil)
	_ LinkObserver             = (*Metrics)(nil)
	_ LinkObserver             = (*Tracer)(nil)
	_ broker.DropObserver      = (*Metrics)(nil)
	_ broker.MechanismObserver = (*Metrics)(nil)
)
