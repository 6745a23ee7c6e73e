// rebeca-collector is the one place to watch a whole fleet. It reads the
// discovery registry the brokers already share, scrapes every registered
// ops endpoint once per -interval — GET /metrics, and GET /trace?since=
// for the spans changed since its last read — assembles the per-process
// hop traces into cross-broker end-to-end traces, folds counter movement
// into rebeca_fleet_* totals, and re-exports everything as a single
// Prometheus /metrics endpoint with per-broker instance labels preserved.
// No broker is told where the collector is.
//
//	rebeca-broker -name A -listen :7471 -registry file:peers.json -ops 127.0.0.1:9281
//	rebeca-collector -listen 127.0.0.1:9290 -registry file:peers.json -interval 15s
//
// Endpoints (GET only):
//
//	/metrics merged fleet exposition (scrape this one endpoint)
//	/fleet   broker freshness (JSON): a broker is stale when its last
//	         scrape failed or the registry stopped listing it
//	/trace   assembled cross-broker traces (?note=publisher#seq)
//	/healthz liveness
//
// What is given up: a broker the collector cannot reach, such as one
// behind NAT, is not observed by it. Brokers without -ops register no
// endpoint and are not scraped; a broker on another host that binds -ops
// to an unspecified host sets -advertise, whose host it registers. A real Prometheus scraping the brokers or
// the collector is unaffected.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rebeca/internal/discovery"
	"rebeca/internal/telemetry/collector"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	registry := flag.String("registry", "", "the brokers' membership registry URI (file:<path> or seed:<listen>[,<seed>...]); required")
	interval := flag.Duration("interval", collector.DefaultInterval, "scrape round cadence")
	traceCap := flag.Int("trace-cap", collector.DefaultTraceCap, "assembled cross-broker traces retained")
	instance := flag.String("instance", "collector", "instance label on the collector's own metrics")
	flag.Parse()
	if *registry == "" {
		flag.Usage()
		os.Exit(2)
	}

	reg, err := discovery.Open(*registry)
	if err != nil {
		fatal(err)
	}
	defer reg.Close()
	c := collector.New(collector.Config{
		Instance: *instance,
		Registry: reg,
		Interval: *interval,
		TraceCap: *traceCap,
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("rebeca-collector listening on http://%s, scraping %s every %s (GET /metrics /fleet /trace)\n",
		ln.Addr(), *registry, *interval)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c.Run(ctx)
	_ = srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rebeca-collector:", err)
	os.Exit(1)
}
