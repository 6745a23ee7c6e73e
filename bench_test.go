// Benchmarks timing the runs behind the paper's tables E1–E9
// (internal/bench generates the tables; E10's cut-and-heal cycle is
// BenchmarkOverlayReconverge) plus micro-benchmarks of what BENCHMARK.json
// has no metric for (filter covering, the facade's delivery
// and publish paths, the ops-on live pipeline). The hot paths it does
// measure — matching, buffering, publish handling, handover, live
// throughput — are benchmarked there and nowhere else.
//
// Experiment benchmarks report domain metrics via b.ReportMetric —
// coverage (cov%), message counts (msgs/op) — alongside the usual ns/op.
// cmd/rebeca-bench prints the full paper-style tables, and
// internal/bench/testdata holds them as tier-1 compares them.
package rebeca_test

import (
	"context"
	"testing"
	"time"

	"rebeca"
	"rebeca/internal/bench"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/sim"
)

// runOutcome executes a scenario once per iteration and reports coverage.
func runOutcome(b *testing.B, s sim.Scenario) {
	b.Helper()
	var last sim.Outcome
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i) + bench.Seed
		out, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	if last.PreArrivalExpected > 0 {
		b.ReportMetric(100*last.PreArrivalCoverage(), "prearrival-cov%")
	}
	if last.LiveExpected > 0 {
		b.ReportMetric(100*last.LiveCoverage(), "live-cov%")
	}
	if last.StaticExpected > 0 {
		b.ReportMetric(float64(last.StaticLoss()), "lost")
	}
	b.ReportMetric(float64(last.ControlMsgs+last.DataMsgs), "msgs")
}

// --- E1: physical handover integrity (Fig. 1 left) ---------------------

func benchE1(b *testing.B, mode sim.MobilityMode) {
	runOutcome(b, sim.Scenario{
		Graph:        movement.Line(5),
		StaticOnly:   true,
		StaticStream: true,
		Mobility:     mode,
		Duration:     time.Second,
		NumMobiles:   2,
	})
}

func BenchmarkE1PhysicalHandoverTransparent(b *testing.B) { benchE1(b, sim.MobilityTransparent) }
func BenchmarkE1PhysicalHandoverJEDI(b *testing.B)        { benchE1(b, sim.MobilityJEDI) }
func BenchmarkE1PhysicalHandoverNaive(b *testing.B)       { benchE1(b, sim.MobilityNaive) }

// --- E2: logical adaptation (Fig. 1 right) -------------------------------

func BenchmarkE2LogicalAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.E2LogicalAdaptation(bench.Seed + int64(i))
		if len(tb.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- E3: routing scalability (Fig. 2) ------------------------------------

func benchE3(b *testing.B, brokers int) {
	g := movement.RandomTree(brokers, 1)
	runOutcome(b, sim.Scenario{
		Graph:       g,
		Replication: sim.ReplicationPreSubscribe,
		Duration:    500 * time.Millisecond,
		NumMobiles:  2,
	})
}

func BenchmarkE3RoutingSimple15(b *testing.B) { benchE3(b, 15) }
func BenchmarkE3RoutingSimple31(b *testing.B) { benchE3(b, 31) }

// --- E4: virtual-client indirection (Fig. 3) ------------------------------

func BenchmarkE4VirtualClientOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.E4VirtualClientOverhead(bench.Seed + int64(i))
		if len(tb.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- E5: pre-subscription coverage (Fig. 4, headline) ---------------------

func benchE5(b *testing.B, graph *movement.Graph, repl sim.ReplicationMode) {
	walkOn := movement.Line(6)
	runOutcome(b, sim.Scenario{
		Graph:       graph,
		Replication: repl,
		Model: movement.RandomWalk{Graph: walkOn, Spec: movement.DwellSpec{
			Dwell: 50 * time.Millisecond, Jitter: 10 * time.Millisecond,
			Gap: 5 * time.Millisecond,
		}},
		Duration:   time.Second,
		NumMobiles: 3,
	})
}

func BenchmarkE5PreSubscriptionReplicated(b *testing.B) {
	benchE5(b, movement.Line(6), sim.ReplicationPreSubscribe)
}

func BenchmarkE5PreSubscriptionReactive(b *testing.B) {
	benchE5(b, movement.Line(6), sim.ReplicationReactive)
}

func BenchmarkE5PreSubscriptionFlooding(b *testing.B) {
	benchE5(b, movement.Complete(6), sim.ReplicationPreSubscribe)
}

// --- E6: nlb degree sweep --------------------------------------------------

func benchE6(b *testing.B, nlbGraph *movement.Graph) {
	moveOn := movement.Grid(3, 3)
	runOutcome(b, sim.Scenario{
		Graph:       nlbGraph,
		Replication: sim.ReplicationPreSubscribe,
		Model: movement.RandomWalk{Graph: moveOn, Spec: movement.DwellSpec{
			Dwell: 50 * time.Millisecond, Jitter: 10 * time.Millisecond,
			Gap: 5 * time.Millisecond,
		}},
		Duration:   time.Second,
		NumMobiles: 3,
	})
}

func BenchmarkE6NlbLine(b *testing.B)     { benchE6(b, movement.Line(9)) }
func BenchmarkE6NlbGrid4(b *testing.B)    { benchE6(b, movement.Grid(3, 3)) }
func BenchmarkE6NlbGrid8(b *testing.B)    { benchE6(b, movement.Grid8(3, 3)) }
func BenchmarkE6NlbComplete(b *testing.B) { benchE6(b, movement.Complete(9)) }

// --- E7: buffering policies -------------------------------------------------

func benchE7(b *testing.B, ttl time.Duration, cap int) {
	runOutcome(b, sim.Scenario{
		Graph:       movement.Line(6),
		Replication: sim.ReplicationPreSubscribe,
		BufferTTL:   ttl,
		BufferCap:   cap,
		Duration:    time.Second,
		NumMobiles:  3,
	})
}

func BenchmarkE7BufferUnbounded(b *testing.B) { benchE7(b, 0, 0) }
func BenchmarkE7BufferTime100ms(b *testing.B) { benchE7(b, 100*time.Millisecond, 0) }
func BenchmarkE7BufferLast5(b *testing.B)     { benchE7(b, 0, 5) }
func BenchmarkE7BufferCombined(b *testing.B)  { benchE7(b, 100*time.Millisecond, 5) }

// --- E8: shared buffers ------------------------------------------------------

func BenchmarkE8SharedBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.E8SharedBuffer(bench.Seed + int64(i))
		if len(tb.Rows) == 0 {
			b.Fatal("bad table")
		}
	}
}

// --- E9: exception mode -------------------------------------------------------

func benchE9(b *testing.B, teleport float64) {
	g := movement.Grid(3, 3)
	spec := movement.DwellSpec{
		Dwell: 50 * time.Millisecond, Jitter: 10 * time.Millisecond, Gap: 5 * time.Millisecond,
	}
	var model movement.Model = movement.RandomWalk{Graph: g, Spec: spec}
	if teleport > 0 {
		model = movement.Mixed{Base: model, Graph: g, Teleport: teleport, Spec: spec}
	}
	runOutcome(b, sim.Scenario{
		Graph:       g,
		Replication: sim.ReplicationPreSubscribe,
		Model:       model,
		Duration:    time.Second,
		NumMobiles:  3,
	})
}

func BenchmarkE9ExceptionModeNoTeleport(b *testing.B) { benchE9(b, 0) }
func BenchmarkE9ExceptionModeTeleport20(b *testing.B) { benchE9(b, 0.2) }
func BenchmarkE9ExceptionModeTeleport50(b *testing.B) { benchE9(b, 0.5) }

// --- micro-benchmarks ------------------------------------------------------

func BenchmarkFilterCovers(b *testing.B) {
	f := filter.New(filter.Le("value", message.Float(100)), filter.Exists("service"))
	g := filter.New(filter.Le("value", message.Float(10)),
		filter.Eq("service", message.String("temperature")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Covers(g) {
			b.Fatal("covering broken")
		}
	}
}

// --- facade delivery paths: channel stream vs callback adapter ----------

// facadePair builds a 2-broker system with a subscriber on B0 and a
// publisher on B1 through the public facade.
func facadePair(b *testing.B, opts ...rebeca.Option) (*rebeca.System, rebeca.Port, rebeca.Port) {
	b.Helper()
	sys, err := rebeca.New(append([]rebeca.Option{rebeca.WithMovement(movement.Line(2))}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	sub := sys.NewClient("sub")
	if err := sub.Connect("B0"); err != nil {
		b.Fatal(err)
	}
	pub := sys.NewClient("pub")
	if err := pub.Connect("B1"); err != nil {
		b.Fatal(err)
	}
	return sys, sub, pub
}

// BenchmarkDeliveryCallback measures one publish consumed through the
// OnNotify callback adapter (publish + settle + synchronous callback).
func BenchmarkDeliveryCallback(b *testing.B) {
	sys, sub, pub := facadePair(b)
	count := 0
	sub.OnNotify(func(rebeca.Notification) { count++ })
	sub.Subscribe(rebeca.NewFilter(rebeca.Exists("k")))
	sys.Settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
		sys.Settle()
	}
	if count != b.N {
		b.Fatalf("callback saw %d of %d", count, b.N)
	}
}

// BenchmarkDeliveryChannel measures the same flow consumed through the
// subscription handle's bounded event stream.
func BenchmarkDeliveryChannel(b *testing.B) {
	sys, sub, pub := facadePair(b)
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("k")), rebeca.WithStreamBuffer(4))
	sys.Settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
		sys.Settle()
		<-s.Events()
	}
	if got := s.Stats().Delivered; got != uint64(b.N) {
		b.Fatalf("stream delivered %d of %d", got, b.N)
	}
}

// --- publish framing: N singles vs one batch frame ----------------------

const benchBatchSize = 100

// BenchmarkPublishSingle routes benchBatchSize notifications as individual
// ingress frames per iteration.
func BenchmarkPublishSingle(b *testing.B) {
	sys, sub, pub := facadePair(b)
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("k")),
		rebeca.WithStreamBuffer(benchBatchSize))
	sys.Settle()
	before := sys.MessagesCarried()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatchSize; j++ {
			if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(int64(j))}); err != nil {
				b.Fatal(err)
			}
		}
		sys.Settle()
		for j := 0; j < benchBatchSize; j++ {
			<-s.Events()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.MessagesCarried()-before)/float64(b.N), "msgs/op")
}

// BenchmarkPublishBatch routes the same notifications as one batch frame
// per iteration.
func BenchmarkPublishBatch(b *testing.B) {
	sys, sub, pub := facadePair(b)
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("k")),
		rebeca.WithStreamBuffer(benchBatchSize))
	sys.Settle()
	batch := make([]map[string]rebeca.Value, benchBatchSize)
	for j := range batch {
		batch[j] = map[string]rebeca.Value{"k": rebeca.Int(int64(j))}
	}
	before := sys.MessagesCarried()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.PublishBatch(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
		sys.Settle()
		for j := 0; j < benchBatchSize; j++ {
			<-s.Events()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.MessagesCarried()-before)/float64(b.N), "msgs/op")
}

// BenchmarkLivePublishThroughputSampled measures the end-to-end publish hot
// path over real loopback TCP — one publisher on B1 streaming to one
// subscriber on B0 through a 2-broker overlay, consumed concurrently under
// Block flow control — with the full observability stack on and hop tracing
// sampled 1-in-64: the unsampled 63/64 majority must stay on the cheap
// path. The same pipeline without the stack is the benchmark module's
// tree-steady workload (notes_per_s); an ops-on workload there is ROADMAP
// item 7's, until then this is the only instrument of that cost.
func BenchmarkLivePublishThroughputSampled(b *testing.B) {
	live, err := rebeca.NewLive(
		rebeca.WithMovement(movement.Line(2)),
		rebeca.WithSettleWindow(100*time.Millisecond, 10*time.Second),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithTraceSampling(64, 50*time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer live.Close()
	sub := live.NewClient("sub")
	if err := sub.Connect("B0"); err != nil {
		b.Fatal(err)
	}
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("k")),
		rebeca.WithStreamBuffer(1024), rebeca.WithOverflow(rebeca.Block))
	pub := live.NewClient("pub")
	if err := pub.Connect("B1"); err != nil {
		b.Fatal(err)
	}
	live.Settle()

	attrs := map[string]rebeca.Value{
		"k":       rebeca.Int(0),
		"service": rebeca.String("temperature"),
		"value":   rebeca.Float(21.5),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			<-s.Events()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attrs["k"] = rebeca.Int(int64(i))
		if _, err := pub.Publish(attrs); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	if got := s.Stats().Delivered; got != uint64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkOverlayReconverge measures one cut → detect → heal →
// re-establish → flush cycle of the overlay subsystem on a 3-broker line
// (virtual clock).
func BenchmarkOverlayReconverge(b *testing.B) {
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	sys, err := rebeca.New(
		rebeca.WithMovement(g),
		rebeca.WithHeartbeat(50*time.Millisecond, 150*time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sub := sys.NewClient("sub")
	if err := sub.Connect("C"); err != nil {
		b.Fatal(err)
	}
	ks := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Exists("k")), rebeca.WithStreamBuffer(16))}
	pub := sys.NewClient("pub")
	if err := pub.Connect("A"); err != nil {
		b.Fatal(err)
	}
	sys.Settle()

	delivered := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.CutLink("A", "B"); err != nil {
			b.Fatal(err)
		}
		sys.Step(300 * time.Millisecond) // heartbeat detection
		if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
		if err := sys.HealLink("A", "B"); err != nil {
			b.Fatal(err)
		}
		sys.Step(2 * time.Second) // backoff redial + handshake + flush
		sys.Settle()
		delivered++
		if got := len(ks.received(b)); got != delivered {
			b.Fatalf("iteration %d: stream carried %d deliveries, want %d (queued publish lost)", i, got, delivered)
		}
	}
}
