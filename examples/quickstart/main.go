// Quickstart: a two-broker deployment, one subscriber, one publisher.
// Demonstrates the streaming subscription surface: Subscribe returns a
// *Subscription handle whose Events channel carries the deliveries, the
// publisher frames its notifications as one batch, and the Metrics
// middleware reads the brokers' counters back — the same counters /metrics
// serves under WithOps, since Metrics is a view over the telemetry stage.
//
// The same code drives both deployment flavors behind the Deployment
// interface: the virtual-clock simulator (default) and real TCP nodes on
// loopback (-live).
//
// It also shows the overlay subsystem's surface: WithHeartbeat tunes the
// broker-link supervision (KPing/KPong probe interval and failure
// timeout), and a Tracer — like any middleware implementing the
// LinkObserver extension, the one way link transitions reach an observer —
// prints its "link" events as links walk connecting → handshaking →
// established (and degraded → established again after a failure;
// the deployment's LinkStates(broker) reports where each link stands now).
// Under -live the links are real TCP connections that redial with backoff
// and replay routing installs on every (re-)establishment, so broker start
// order never matters.
//
// Since PR 5 live links speak a length-prefixed binary wire protocol and
// every broker matches through the matching index by default — nothing to
// configure here. (The transitional gob fallback is gone; a legacy peer
// dialing in is refused with a clear error.)
//
// Topologies need not be trees anymore: WithMeshRouting() accepts a
// cyclic movement graph — the brokers elect a spanning tree over it,
// redundant edges become failover paths, and dedup keeps delivery
// exactly-once while floods repair around a cut link. And instead of
// wiring a fleet by hand, WithRegistry("file:peers.json") (or seed:, a
// gossip mesh with no shared file) has every broker register itself and discover its peers; mesh routing
// comes along automatically since a registry may describe any graph. The
// distributed equivalent replaces all the static -edges/-dial flags:
//
//	rebeca-broker -name b1 -listen :7471 -registry file:peers.json
//	rebeca-broker -name b2 -listen :7472 -registry file:peers.json
//	rebeca-broker -name b3 -listen :7473 -registry file:peers.json
//
// Each node registers under -name, links whoever the registry announces
// (the lexicographically smaller ID dials), and departures re-elect the
// tree; /readyz (with -ops) gates on membership + overlay convergence.
//
// Fleet observability (PR 8) rounds out the ops story. Every broker's
// -ops endpoint (WithOps in a facade) serves the Prometheus text
// exposition on /metrics, and under -registry its address is registered
// with the broker, so whatever reads the registry can find and scrape it.
// Hop tracing scales to production rates via sampling — `-trace-sample 64` stamps 1-in-64
// notifications, deterministically by ID so every broker agrees, while
// `-trace-slow 250ms` retro-captures any delivery that crosses the
// threshold (and rate-limited/flood-fallback drops) with its full hop
// path and a reason tag; facades use WithTraceSampling(n, slow). Both are
// live knobs: POST /config sample=1 or slow=100ms. Structured slog
// output replaces ad-hoc prints — `-log-level debug` (or
// WithLogging(w, "info")) tags every line with its subsystem, and POST
// /config log.overlay=debug raises one subsystem's verbosity at runtime
// without a restart. To chase a latency spike: scrape
// /metrics?exemplars=1, read the worst notification ID off the slow
// bucket's `# {note="pub#seq"}` trailer, and GET /trace?note=pub#seq for
// its hop-by-hop path (bare /trace lists every retained span,
// newest-first).
//
// Watching a fleet (PR 9): one rebeca-collector reads the registry the
// brokers already share and scrapes every registered ops endpoint each
// -interval — /metrics, and /trace?since= for the spans that changed since
// its last read — so no broker is told where the collector is:
//
//	rebeca-broker -name b1 ... -registry file:peers.json -ops :9281 -trace-sample 64
//	rebeca-broker -name b2 ... -registry file:peers.json -ops :9282 -trace-sample 64
//	rebeca-collector -listen :9290 -registry file:peers.json -interval 15s
//
// The collector's /metrics re-exports every broker's families tagged
// instance="b1" etc. plus rebeca_fleet_* counter totals folded across
// the fleet, so one Prometheus scrape covers N brokers. Its
// /trace?note=pub#seq merges the partial spans different brokers
// served for the same notification into one hop-ordered path (a trace
// is flagged partial until every broker on the path has reported), and
// /fleet lists each broker, flagging it stale when its last scrape failed
// or the registry stopped listing it — a SIGKILLed broker shows up there
// one round later. A broker the collector cannot reach (behind NAT, say)
// is not observed by it; brokers on several hosts set -advertise, whose
// host replaces the unspecified host of -ops :9281 in the registry.
// A Prometheus/Mimir/Thanos TSDB joins by scraping that one endpoint (or
// any broker's -ops /metrics); the "trace.pending" /config knob bounds
// the sampler's in-flight window (default 1024; POST trace.pending=4096
// to grow it) and resizes it live. Registry gauges for the Go runtime (goroutines, GC
// pause, heap) ride along on every broker and on the collector itself.
//
// Run with: go run ./examples/quickstart [-live]
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"rebeca"
)

func main() {
	live := flag.Bool("live", false, "run over real TCP on loopback instead of the virtual clock")
	flag.Parse()

	// A movement graph with one edge: home <-> office. The broker overlay
	// is its spanning tree.
	g := rebeca.NewGraph()
	g.AddEdge("home", "office")

	metrics := rebeca.NewMetrics()
	links := rebeca.NewTracer(func(ev rebeca.TraceEvent) {
		if ev.Hook == "link" {
			fmt.Printf("overlay: %s's link to %s: %s\n", ev.Broker, ev.Node, ev.Info)
		}
	})
	opts := []rebeca.Option{
		rebeca.WithMovement(g),
		rebeca.WithMiddleware(metrics, links),
		// Overlay link supervision: probe established broker links every
		// 200ms, declare them failed after 600ms of silence. (Under the
		// virtual clock this also deploys the overlay managers; Live
		// always runs them.)
		rebeca.WithHeartbeat(200*time.Millisecond, 600*time.Millisecond),
	}
	var (
		d   rebeca.Deployment
		err error
	)
	if *live {
		d, err = rebeca.NewLive(opts...)
	} else {
		d, err = rebeca.New(opts...)
	}
	if err != nil {
		panic(err)
	}
	defer d.Close()

	// A subscriber at the office listens for failed builds. The handle
	// owns a bounded event stream (default: 256 events, DropOldest).
	alice := d.NewClient("alice")
	if err := alice.Connect("office"); err != nil {
		panic(err)
	}
	failures := alice.Subscribe(rebeca.NewFilter(
		rebeca.Eq("service", rebeca.String("ci")),
		rebeca.Eq("status", rebeca.String("failed")),
	))
	d.Settle() // let the subscription propagate

	// A publisher at home emits CI results as one batch frame; only the
	// failures match.
	ci := d.NewClient("ci-bot")
	if err := ci.Connect("home"); err != nil {
		panic(err)
	}
	var batch []map[string]rebeca.Value
	for i, status := range []string{"passed", "failed", "passed", "failed"} {
		batch = append(batch, map[string]rebeca.Value{
			"service": rebeca.String("ci"),
			"status":  rebeca.String(status),
			"commit":  rebeca.String(fmt.Sprintf("c%04d", i)),
		})
	}
	if _, err := ci.PublishBatch(context.Background(), batch); err != nil {
		panic(err)
	}
	d.Settle()

	// Cancel closes the stream, so the range loop drains the buffered
	// deliveries and terminates.
	failures.Cancel()
	got := 0
	for del := range failures.Events() {
		status, _ := del.Note.Get("status")
		commit, _ := del.Note.Get("commit")
		fmt.Printf("alice: build %s for commit %s\n", status.Str(), commit.Str())
		got++
	}

	totals := metrics.Totals()
	fmt.Printf("alice received %d notifications (2 expected)\n", got)
	fmt.Printf("brokers routed %d publishes, delivered %d (avg latency %s)\n",
		totals.Publishes, totals.Deliveries, totals.AvgDeliveryLatency())
}
