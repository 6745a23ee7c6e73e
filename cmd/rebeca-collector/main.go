// rebeca-collector is the fleet-side receiver for push-model telemetry:
// point N brokers' -push flags at it and it becomes the one place to
// watch the whole deployment. It ingests metric snapshots (Prometheus
// text exposition 0.0.4 — any other body is a 400) and span batches,
// assembles the per-process hop traces into cross-broker end-to-end
// traces, folds counter movement into rebeca_fleet_* totals, and
// re-exports everything as a single Prometheus /metrics endpoint with
// per-broker instance labels preserved.
//
//	rebeca-collector -listen 127.0.0.1:9095
//	rebeca-broker -id A -listen :7471 -edges A-B -push http://127.0.0.1:9095/ingest
//
// Endpoints:
//
//	POST /...    accept a push body (any path)
//	GET  /metrics merged fleet exposition (scrape this one endpoint)
//	GET  /fleet   broker freshness (JSON; silent brokers marked stale)
//	GET  /trace   assembled cross-broker traces (?note=publisher#seq)
//	GET  /count   pushes accepted so far, as text
//	GET  /healthz liveness
//
// It supersedes rebeca-pushsink and keeps its -listen/-out/-quiet flags
// and /count endpoint, so existing harnesses keep working.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rebeca/internal/telemetry/collector"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	out := flag.String("out", "", "append received push bodies to this file (empty = discard)")
	quiet := flag.Bool("quiet", false, "suppress per-push log lines")
	staleAfter := flag.Duration("stale-after", 0,
		"fixed deadline after which a silent broker is stale on /fleet (0 = 2x its observed push cadence)")
	traceCap := flag.Int("trace-cap", collector.DefaultTraceCap, "assembled cross-broker traces retained")
	instance := flag.String("instance", "collector", "instance label on the collector's own metrics")
	flag.Parse()

	cfg := collector.Config{
		Instance:   *instance,
		StaleAfter: *staleAfter,
		TraceCap:   *traceCap,
	}
	if !*quiet {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rebeca-collector:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.Raw = f
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebeca-collector:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: collector.New(cfg).Handler(), ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("rebeca-collector listening on http://%s (POST pushes; GET /metrics /fleet /trace /count)\n", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "rebeca-collector:", err)
			os.Exit(1)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	_ = srv.Close()
}
