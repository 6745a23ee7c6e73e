package rebeca_test

import (
	"testing"
	"time"

	"rebeca"
)

// pubSubSystem builds a 3-broker line with a subscriber on B0 and a
// publisher on B2, with the given middleware installed; the subscriber's
// stream is returned.
func pubSubSystem(t *testing.T, mws ...rebeca.Middleware) (*rebeca.System, *streamLog, rebeca.Port) {
	t.Helper()
	sys := newSystem(t,
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithMiddleware(mws...),
	)
	sub := sys.NewClient("sub")
	connect(t, sub, "B0")
	s := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")), rebeca.WithStreamBuffer(64))}
	sys.Settle()
	pub := sys.NewClient("pub")
	connect(t, pub, "B2")
	return sys, s, pub
}

func TestMetricsMiddleware(t *testing.T) {
	metrics := rebeca.NewMetrics()
	sys, sub, pub := pubSubSystem(t, metrics)
	for i := 0; i < 4; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle()

	if got := len(sub.received(t)); got != 4 {
		t.Fatalf("received %d, want 4", got)
	}
	totals := metrics.Totals()
	if totals.Deliveries != 4 {
		t.Errorf("deliveries = %d, want 4", totals.Deliveries)
	}
	// Each publish transits B2, B1, B0: three routing events per publish.
	if totals.Publishes != 12 {
		t.Errorf("publishes = %d, want 12", totals.Publishes)
	}
	// The subscription installs at every broker along the line.
	if totals.Subscribes != 3 {
		t.Errorf("subscribes = %d, want 3", totals.Subscribes)
	}
	// Three 1ms hops upstream of the delivering broker: client to B2,
	// B2 to B1, B1 to B0. The view reads the latency histogram, which sums
	// float seconds; Snapshot rounds the sum to the nanosecond, so four
	// deliveries of 3ms still average to exactly 3ms.
	snap := metrics.Snapshot()
	if got := snap["B0"].AvgDeliveryLatency(); got != 3*time.Millisecond {
		t.Errorf("avg latency at B0 = %s, want 3ms", got)
	}
	if snap["B2"].Deliveries != 0 {
		t.Errorf("B2 deliveries = %d, want 0 (no local subscriber)", snap["B2"].Deliveries)
	}
}

func TestTracerMiddleware(t *testing.T) {
	// The callback is the Tracer's whole output: the virtual-clock System
	// runs every broker on one goroutine, so collecting needs no lock.
	var events []rebeca.TraceEvent
	tracer := rebeca.NewTracer(func(e rebeca.TraceEvent) { events = append(events, e) })
	sys, sub, pub := pubSubSystem(t, tracer)
	if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(1)}); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	if got := len(sub.received(t)); got != 1 {
		t.Fatalf("received %d, want 1", got)
	}

	byHook := map[string]int{}
	for _, e := range events {
		byHook[e.Hook]++
	}
	if byHook["subscribe"] != 3 || byHook["publish"] != 3 || byHook["deliver"] != 1 {
		t.Errorf("events by hook = %v, want subscribe:3 publish:3 deliver:1", byHook)
	}
	last := events[len(events)-1]
	if last.Hook != "deliver" || last.Broker != "B0" || last.Node != "sub" {
		t.Errorf("last event = %+v, want delivery of sub at B0", last)
	}
}

func TestRateLimiterMiddleware(t *testing.T) {
	limiter := rebeca.NewRateLimiter(1000, 2)
	sys, sub, pub := pubSubSystem(t, limiter)
	// Five publishes in the same virtual instant: the bucket admits the
	// burst of 2 and drops the rest at the ingress broker.
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle()
	if got := len(sub.received(t)); got != 2 {
		t.Errorf("received %d, want 2 (burst)", got)
	}
	if got := limiter.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}

	// After virtual time passes, the bucket refills and transit is never
	// double-counted: one more publish goes through end to end.
	sys.Step(100 * time.Millisecond)
	if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(99)}); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	if got := len(sub.received(t)); got != 3 {
		t.Errorf("received %d after refill, want 3", got)
	}
}

// stampStage demonstrates a custom mutating stage through the facade.
type stampStage struct {
	rebeca.PassMiddleware
}

func (stampStage) OnPublish(b *rebeca.Broker, _ rebeca.NodeID, n *rebeca.Notification, next func()) {
	if _, ok := n.Get("ingress"); !ok {
		n.Attrs["ingress"] = rebeca.String(string(b.ID()))
	}
	next()
}

func TestCustomMiddlewareThroughFacade(t *testing.T) {
	sys, sub, pub := pubSubSystem(t, stampStage{})
	if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(1)}); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	recv := sub.received(t)
	if len(recv) != 1 {
		t.Fatalf("received %d, want 1", len(recv))
	}
	if v, ok := recv[0].Note.Get("ingress"); !ok || v.Str() != "B2" {
		t.Errorf("ingress stamp = %v, want B2", v)
	}
}
