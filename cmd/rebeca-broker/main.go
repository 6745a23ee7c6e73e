// rebeca-broker runs one live broker over TCP — the deployment mode of §2:
// one process per broker, point-to-point links to overlay neighbors,
// physical-mobility manager and replicator attached at the border. The
// replicator's nlb is the overlay: the -edges neighbors, or under
// -registry every registered broker.
//
// Two ways to describe the overlay:
//
//   - Static (-edges/-dial): the full edge list is passed to every node,
//     which derives its peers and unicast next-hop table; -dial lists the
//     neighbors this node actively connects to (exactly one side of each
//     edge should dial). The graph may be any connected graph: the
//     brokers elect a spanning tree over it (on a tree, the tree itself),
//     and redundant edges serve as failover paths.
//
//   - Discovery (-registry/-name): the node registers itself with a
//     membership registry (file: or seed: — see internal/discovery)
//     and links to whichever brokers the registry names, no -edges or
//     -dial flags. Dial direction is derived (the smaller ID dials),
//     departed brokers are unlinked, and the brokers elect their spanning
//     tree over the registered graph (re-elected on membership or link
//     changes).
//
// Start order does not matter either way: a dial to a neighbor that is
// not up yet retries with jittered backoff, and every link
// (re-)establishment runs a sync handshake that replays routing installs
// before the link carries traffic — so brokers can boot, restart and
// rejoin in any order. Established links exchange heartbeats
// (-heartbeat/-heartbeat-timeout); failed links go degraded, queue
// outbound traffic, and self-heal.
//
// Links speak the length-prefixed binary wire protocol (internal/codec).
// The gob fallback of pre-binary releases has been removed; a legacy
// peer's connection is refused with a clear error.
//
// Example 3-broker line on one machine, statically:
//
//	rebeca-broker -id A -listen :7471 -edges A-B,B-C
//	rebeca-broker -id B -listen :7472 -edges A-B,B-C -dial A=localhost:7471
//	rebeca-broker -id C -listen :7473 -edges A-B,B-C -dial B=localhost:7472
//
// The same fleet from a registry file (which may also describe cyclic
// meshes), no per-node wiring flags:
//
//	rebeca-broker -name A -listen :7471 -registry file:peers.json
//	rebeca-broker -name B -listen :7472 -registry file:peers.json
//	rebeca-broker -name C -listen :7473 -registry file:peers.json
//
// -ops serves the broker's /metrics, /readyz, /trace and /config. Under
// -registry the ops address is registered too, so one rebeca-collector
// reading the same registry scrapes the whole fleet; an unspecified -ops
// host is registered as -advertise's host (127.0.0.1 without -advertise):
//
//	rebeca-broker -name A -listen :7471 -registry file:peers.json -ops :9281
//	rebeca-collector -registry file:peers.json -interval 15s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rebeca"
)

func main() {
	var (
		id        = flag.String("id", "", "this broker's ID (required; -name is an alias)")
		name      = flag.String("name", "", "alias for -id (the discovery-mode spelling)")
		listen    = flag.String("listen", ":7471", "TCP listen address")
		edges     = flag.String("edges", "", "full overlay edge list, e.g. A-B,B-C (static mode)")
		dial      = flag.String("dial", "", "neighbors to dial, e.g. A=host:port,B=host:port (static mode)")
		registry  = flag.String("registry", "", "membership registry URI (file:<path> or seed:<listen>[,<seed>...]); replaces -edges/-dial")
		advertise = flag.String("advertise", "", "overlay address to register for peers to dial (default: the bound listen address with unspecified hosts rewritten to 127.0.0.1); its host also stands in for an unspecified -ops host")
		stats     = flag.Duration("stats", 0, "print telemetry-registry metrics at this interval (0 = off)")
		opsAddr   = flag.String("ops", "", "HTTP operations endpoint address, e.g. :9090 (/metrics, /healthz, /readyz, /trace, /config, /debug/pprof)")
		trace     = flag.Bool("trace", false, "log every publish, delivery and subscription")
		rate      = flag.Float64("publish-rate", 0, "token-bucket limit on client publish ingress per second (0 = unlimited)")
		burst     = flag.Int("publish-burst", 10, "token-bucket burst for -publish-rate")
		storeDir  = flag.String("store", "", "WAL directory for durable subscriptions (empty = in-memory only)")
		drain     = flag.Duration("drain", 3*time.Second, "max time to drain in-flight deliveries on shutdown")
		hbEvery   = flag.Duration("heartbeat", time.Second, "overlay link heartbeat interval")
		hbTimeout = flag.Duration("heartbeat-timeout", 0, "declare an overlay link failed after this much silence (0 = 3x interval)")
		linkSpill = flag.String("link-spill", "", "WAL directory for store-backed link spill: pending-queue overflow on a partitioned overlay link spills here and replays on re-establishment instead of being dropped (use the -store directory to share its WAL)")
		spillMax  = flag.Int64("link-spill-max", 0, "per-link spill byte budget for -link-spill (0 = default 256 MiB); past it the spill drops its own oldest records")
		linkPend  = flag.Int("link-pending", 0, "in-memory pending-queue cap per overlay link (0 = default 4096)")
		regTTL    = flag.Duration("registry-ttl", 0, "file-registry lease: stamp our entry with this TTL and refresh it, so a killed broker's registration ages out (file: registries only; 0 = entries never expire)")
		logLevel  = flag.String("log-level", "info", "structured log verbosity for every subsystem: debug|info|warn|error (retune per subsystem via /config log.<subsystem>)")
		sampleN   = flag.Int64("trace-sample", 0, "hop-trace sampling as 1-in-N notifications (0 or 1 = trace everything)")
		slowThr   = flag.Duration("trace-slow", 0, "always trace deliveries slower than this, even unsampled (0 = off)")
	)
	flag.Parse()
	if *id == "" {
		*id = *name
	}
	if *id == "" || (*edges == "" && *registry == "") {
		flag.Usage()
		os.Exit(2)
	}

	// The spec is what only this process knows about itself; everything
	// else is the same options a library deployment takes. StartBroker
	// validates the combination (static wiring xor registry, tree edges).
	spec := rebeca.BrokerSpec{
		ID:          rebeca.NodeID(*id),
		Listen:      *listen,
		Advertise:   *advertise,
		RegistryTTL: *regTTL,
	}
	var err error
	if spec.Edges, err = parseEdges(*edges); err != nil {
		fatal(err)
	}
	if spec.Dial, err = parseDials(*dial); err != nil {
		fatal(err)
	}

	// One slog root on stderr, every subsystem gated at -log-level and
	// retunable at runtime via the /config log.* knobs (log.overlay=warn
	// quiets routine link transitions). -stats and -ops are both fed by the
	// registry that comes with it; the sampler's pending ring is the
	// /config trace.pending knob.
	opts := []rebeca.Option{
		rebeca.WithLogging(os.Stderr, *logLevel),
		rebeca.WithHeartbeat(*hbEvery, *hbTimeout),
	}
	if *registry != "" {
		opts = append(opts, rebeca.WithRegistry(*registry))
	}
	if *linkPend > 0 {
		opts = append(opts, rebeca.WithLinkPendingCap(*linkPend))
	}
	if *opsAddr != "" {
		opts = append(opts, rebeca.WithOps(*opsAddr))
	}
	if *sampleN != 0 || *slowThr != 0 {
		opts = append(opts, rebeca.WithTraceSampling(*sampleN, *slowThr))
	}
	if *trace {
		opts = append(opts, rebeca.WithMiddleware(rebeca.NewTracer(func(e rebeca.TraceEvent) {
			fmt.Printf("%s %-9s broker=%s node=%s note=%v sub=%s\n",
				e.At.Format("15:04:05.000"), e.Hook, e.Broker, e.Node, e.Note, e.Sub)
		})))
	}
	if *rate > 0 {
		opts = append(opts, rebeca.WithMiddleware(rebeca.NewRateLimiter(*rate, *burst)))
	}

	// Durable subscriptions: a WAL on -store survives restarts — reopening
	// the same directory recovers ghost sessions and their pending
	// notifications. -link-spill parks overlay pending-queue overflow in a
	// WAL too, and may share -store's (queue namespaces never collide).
	var wals []*rebeca.WALStore
	openWAL := func(dir string) *rebeca.WALStore {
		w, err := rebeca.OpenWAL(dir)
		if err != nil {
			fatal(err)
		}
		wals = append(wals, w)
		return w
	}
	var durable *rebeca.WALStore
	if *storeDir != "" {
		durable = openWAL(*storeDir)
		opts = append(opts, rebeca.WithDurable(durable))
	}
	if *linkSpill != "" {
		spill := durable
		if *linkSpill != *storeDir {
			spill = openWAL(*linkSpill)
		}
		opts = append(opts, rebeca.WithLinkSpill(spill, *spillMax))
	}

	node, err := rebeca.StartBroker(spec, opts...)
	if err != nil {
		fatal(err)
	}
	if *registry != "" {
		fmt.Printf("rebeca-broker %s listening on %s (registry-driven mesh)\n", spec.ID, node.Addr())
	} else {
		fmt.Printf("rebeca-broker %s listening on %s (%d edges)\n", spec.ID, node.Addr(), len(spec.Edges))
	}
	if addr := node.OpsAddr(); addr != "" {
		fmt.Printf("ops endpoint on http://%s (/metrics /healthz /readyz /trace /config /debug/pprof)\n", addr)
	}

	// -stats: a periodic one-line digest of the same registry /metrics
	// serves, with per-link detail. NewTicker (not time.Tick) so shutdown
	// releases the ticker instead of leaking it for the process lifetime.
	statsDone := make(chan struct{})
	if *stats > 0 {
		ticker := time.NewTicker(*stats)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					fmt.Println(node.StatsLine())
				case <-statsDone:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful shutdown: deregister, let in-flight deliveries and buffer
	// appends run to completion, drop the links, then make the stores
	// durable. A second signal stops waiting for the drain.
	fmt.Println("shutting down: draining in-flight deliveries")
	close(statsDone)
	closed := make(chan error, 1)
	go func() { closed <- node.Close(*drain) }()
	select {
	case <-closed:
	case <-sig:
		fmt.Fprintln(os.Stderr, "rebeca-broker: second signal; skipping drain")
	}
	// The node stops before the stores: once the links and event loop are
	// down nothing can append anymore, so the final sync-close captures
	// every delivery the broker ever accepted. An unflushed spill backlog
	// stays on disk for the next incarnation to replay.
	for _, w := range wals {
		if err := w.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "rebeca-broker: store sync:", err)
		}
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rebeca-broker: store close:", err)
		}
	}
}

func parseEdges(s string) ([][2]rebeca.NodeID, error) {
	var out [][2]rebeca.NodeID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ab := strings.SplitN(part, "-", 2)
		if len(ab) != 2 || ab[0] == "" || ab[1] == "" {
			return nil, fmt.Errorf("bad edge %q (want A-B)", part)
		}
		out = append(out, [2]rebeca.NodeID{rebeca.NodeID(ab[0]), rebeca.NodeID(ab[1])})
	}
	return out, nil
}

func parseDials(s string) (map[rebeca.NodeID]string, error) {
	out := make(map[rebeca.NodeID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad -dial entry %q (want NAME=host:port)", part)
		}
		out[rebeca.NodeID(kv[0])] = kv[1]
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rebeca-broker:", err)
	os.Exit(1)
}
