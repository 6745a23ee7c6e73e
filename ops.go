package rebeca

import (
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"rebeca/internal/discovery"
	"rebeca/internal/store"
	"rebeca/internal/telemetry"
	"rebeca/internal/wire"
)

// opsStack bundles one deployment's telemetry objects: the metric
// registry, the hop-trace span store and the sampler that is its one way
// in, the broker-chain middleware stage feeding both, the HTTP endpoint
// serving them (what operators and rebeca-collector scrape) and — when
// configured — the structured log root. It is the only place any of them,
// or any instrument, is built: New, NewLive and StartBroker (and so
// rebeca-broker) all get theirs from newOpsStack. Without WithOps or
// WithLogging none of it exists and the hot paths carry no
// instrumentation.
type opsStack struct {
	reg     *telemetry.Registry
	spans   *telemetry.SpanStore
	mw      *telemetry.Middleware
	ops     *telemetry.Ops
	sampler *telemetry.Sampler
	logger  *telemetry.Logger
	// spill reports WithLinkSpill: the spill families join the link ones.
	spill bool
	// supervisors are the brokers' overlay link supervisors (see supervise).
	supervisors []supervisor
}

// supervisor is one broker's overlay link supervision, as a live wire.Node
// or a simulated overlay.Manager exposes it.
type supervisor interface {
	Ready() (ok bool, detail string)
	Heartbeat() (interval, timeout time.Duration)
	SetHeartbeat(interval, timeout time.Duration)
	Info() []LinkInfo
}

// supervise puts one broker's link supervision behind the endpoint:
// /readyz waits for its links to be established (and their initial routing
// sync applied — establishment is entered on KSyncInstall receipt), the
// "heartbeat" knob retunes it, and the rebeca_link_* families read its
// links at scrape time.
func (st *opsStack) supervise(id NodeID, s supervisor) {
	st.supervisors = append(st.supervisors, s)
	st.ops.AddReadyCheck("links:"+string(id), s.Ready)
	bid := string(id)
	st.reg.GaugeFunc(telemetry.MetricLinkState,
		"Overlay link state (1 = the link is in the state named by the state label).",
		func(emit func(telemetry.Labels, float64)) {
			for _, li := range s.Info() {
				emit(telemetry.Labels{"broker": bid, "peer": string(li.Peer), "state": li.State.String()}, 1)
			}
		})
	perLink := func(value func(LinkInfo) float64) telemetry.CollectFunc {
		return func(emit func(telemetry.Labels, float64)) {
			for _, li := range s.Info() {
				emit(telemetry.Labels{"broker": bid, "peer": string(li.Peer)}, value(li))
			}
		}
	}
	st.reg.GaugeFunc(telemetry.MetricLinkPending, "Messages queued for a down overlay link.",
		perLink(func(li LinkInfo) float64 { return float64(li.Pending) }))
	st.reg.CounterFunc(telemetry.MetricLinkDropped, "Messages discarded by an overlay link's bounded pending queue.",
		perLink(func(li LinkInfo) float64 { return float64(li.Dropped) }))
	if !st.spill {
		return
	}
	st.reg.GaugeFunc(telemetry.MetricLinkSpillDepth, "Messages parked in a link's store-backed spill queue.",
		perLink(func(li LinkInfo) float64 { return float64(li.SpillDepth) }))
	st.reg.GaugeFunc(telemetry.MetricLinkSpillBytes, "Bytes held by a link's store-backed spill queue.",
		perLink(func(li LinkInfo) float64 { return float64(li.SpillBytes) }))
	st.reg.CounterFunc(telemetry.MetricLinkSpillDropped, "Messages the spill discarded (append failures and byte-budget evictions).",
		perLink(func(li LinkInfo) float64 { return float64(li.SpillDropped) }))
}

// frameObserver is one live broker's encoded-frame-size histogram, as the
// observer its wire node hands every link's encoder.
func (st *opsStack) frameObserver(id NodeID) func(bytes int) {
	hist := st.reg.Histogram(telemetry.MetricFrameBytes,
		"Encoded wire frame sizes in bytes (length prefix included), per sending broker.",
		telemetry.SizeBuckets, telemetry.Labels{"broker": string(id)})
	return func(bytes int) { hist.Observe(float64(bytes)) }
}

// newOpsStack builds the registry/span-store/sampler/middleware set,
// puts the telemetry stage on the config's broker chain and, under
// WithOps, binds the endpoint's listener — so its address is known when
// the brokers register — without serving it yet; nil when the options ask
// for no endpoint and no log stream. Must run before broker construction
// so every broker installs the stage. Logging-only deployments get the
// stack too — -stats reads its registry — but never open a listener. A
// caller that fails after building the stack closes it.
func newOpsStack(cfg *config) (*opsStack, error) {
	if cfg.opsAddr == "" && !cfg.logging {
		return nil, nil
	}
	spans := telemetry.NewSpanStore(0)
	sampler := telemetry.NewSampler(spans, max(cfg.sampleN, 1), cfg.slowThresh)
	// A deployment has one telemetry stage and one registry: a Metrics view
	// on the chain already carries both, so they are adopted where the
	// caller put them; only otherwise is a stage built and appended.
	var mw *telemetry.Middleware
	for _, m := range cfg.middleware {
		if view, ok := m.(*Metrics); ok {
			mw = view.stage
			break
		}
	}
	if mw == nil {
		mw = telemetry.NewMiddleware(telemetry.NewRegistry())
		cfg.middleware = append(cfg.middleware, mw)
	}
	mw.SetSampler(sampler)
	reg := mw.Registry()
	// Stamping costs every hop of every publish: it is on only where
	// something can show a trace (/trace).
	mw.EnableHopTrace(cfg.opsAddr != "")
	telemetry.RegisterSpanMetrics(reg, spans)
	telemetry.RegisterSamplerMetrics(reg, sampler)
	st := &opsStack{reg: reg, spans: spans, mw: mw, ops: telemetry.NewOps(reg, spans),
		sampler: sampler, spill: cfg.spillStore != nil}
	if cfg.opsAddr != "" {
		if err := st.ops.Listen(cfg.opsAddr); err != nil {
			return nil, err
		}
	}
	telemetry.RegisterGoRuntime(reg)
	if cfg.logging {
		level := telemetry.ParseLevelDefault(cfg.logLevel)
		w := cfg.logWriter
		if w == nil {
			w = os.Stderr
		}
		st.logger = telemetry.NewLogger(w, level)
		// Both WALs a deployment can hold log rotation and compaction.
		for _, s := range []store.Store{cfg.store, cfg.spillStore} {
			if wal, ok := s.(*store.WAL); ok {
				wal.SetLogger(st.logger.For("store"))
			}
		}
	}
	return st, nil
}

// start registers the knobs and collectors every deployment flavor shares
// and serves the endpoint bound under WithOps. Call it once the host has
// registered its own probes: until then, connections wait in the listen
// backlog, so /readyz never answers without them.
func (st *opsStack) start(cfg *config) {
	st.registerCommon(cfg)
	st.ops.Start()
}

// close stops the endpoint and releases its listener. No-op on a nil
// stack.
func (st *opsStack) close() {
	if st == nil {
		return
	}
	_ = st.ops.Close()
}

// addr is the bound address of the HTTP endpoint ("" without WithOps).
func (st *opsStack) addr() string {
	if st == nil {
		return ""
	}
	return st.ops.Addr()
}

// logFor returns the subsystem logger when logging is configured (nil
// otherwise — internal packages treat nil as silent).
func (st *opsStack) logFor(subsystem string) *slog.Logger {
	if st == nil || st.logger == nil {
		return nil
	}
	return st.logger.For(subsystem)
}

// watchNode registers one live broker's probes and collectors. Under a
// registry, readiness additionally waits for a snapshot that includes the
// broker itself. The discovery and tree-election families register
// whatever the mode, so every scrape exposes the same set; a static tree
// renders them empty.
func (st *opsStack) watchNode(id NodeID, node *wire.Node, member *discovery.Membership) {
	st.supervise(id, node)
	if member != nil {
		st.ops.AddReadyCheck("membership:"+string(id), member.Ready)
	}
	st.reg.GaugeFunc(telemetry.MetricDiscoveryPeers,
		"Overlay peers currently linked via the discovery registry.",
		func(emit func(telemetry.Labels, float64)) {
			if member != nil {
				emit(telemetry.Labels{"broker": string(id)}, float64(member.Peers()))
			}
		})
	st.reg.CounterFunc(telemetry.MetricDiscoveryEvents,
		"Membership changes applied from registry snapshots, by type.",
		func(emit func(telemetry.Labels, float64)) {
			if member != nil {
				for typ, n := range member.Events() {
					emit(telemetry.Labels{"broker": string(id), "type": typ}, float64(n))
				}
			}
		})
	st.reg.CounterFunc(telemetry.MetricTreeRecomputations,
		"Spanning-tree elections run by the brokers.",
		func(emit func(telemetry.Labels, float64)) {
			emit(telemetry.Labels{"broker": string(id)}, float64(node.Broker().Mesh().Recomputations()))
		})
}

// registerCommon wires the knobs and collectors every deployment flavor
// shares: the heartbeat of the supervisors the host registered, the
// hop-trace toggle and sampler tuning, rate-limiter retuning and drop
// counts, and the WAL's on-disk footprint.
func (st *opsStack) registerCommon(cfg *config) {
	if sup := st.supervisors; len(sup) > 0 {
		st.ops.AddKnob("heartbeat", telemetry.Knob{
			Help: "overlay heartbeat as interval[,timeout] (e.g. 500ms,2s), applied to every broker; timeout 0 defaults to 3x interval",
			Get: func() string {
				interval, timeout := sup[0].Heartbeat()
				return fmt.Sprintf("%s,%s", interval, timeout)
			},
			Set: func(v string) error {
				interval, timeout, err := parseHeartbeat(v)
				if err != nil {
					return err
				}
				for _, s := range sup {
					s.SetHeartbeat(interval, timeout)
				}
				return nil
			},
		})
	}
	st.ops.AddKnob("trace", telemetry.Knob{
		Help: "hop-trace stamping and span recording: on/off",
		Get:  func() string { return onOff(st.mw.HopTraceEnabled()) },
		Set: func(v string) error {
			on, err := parseOnOff(v)
			if err != nil {
				return err
			}
			st.mw.EnableHopTrace(on)
			return nil
		},
	})
	s := st.sampler
	st.ops.AddKnob("sample", telemetry.Knob{
		Help: "hop-trace sampling rate as 1-in-N (1 traces everything)",
		Get:  func() string { return strconv.FormatInt(s.Rate(), 10) },
		Set: func(v string) error {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return fmt.Errorf("bad rate %q: %v", v, err)
			}
			if n < 1 {
				return fmt.Errorf("bad rate %d: want >= 1", n)
			}
			s.SetRate(n)
			return nil
		},
	})
	st.ops.AddKnob("slow", telemetry.Knob{
		Help: "retro-capture threshold: deliveries slower than this are always traced (0 disables)",
		Get:  func() string { return s.SlowThreshold().String() },
		Set: func(v string) error {
			d, err := time.ParseDuration(strings.TrimSpace(v))
			if err != nil {
				return fmt.Errorf("bad threshold %q: %v", v, err)
			}
			if d < 0 {
				return fmt.Errorf("bad threshold %s: want >= 0", d)
			}
			s.SetSlowThreshold(d)
			return nil
		},
	})
	st.ops.AddKnob("trace.pending", telemetry.Knob{
		Help: "pending-decision ring capacity: hop paths parked awaiting a retro-capture verdict (shrinking evicts oldest)",
		Get:  func() string { return strconv.Itoa(s.PendingCap()) },
		Set: func(v string) error {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return fmt.Errorf("bad capacity %q: %v", v, err)
			}
			if n < 1 {
				return fmt.Errorf("bad capacity %d: want >= 1", n)
			}
			s.SetPendingCap(n)
			return nil
		},
	})
	if st.logger != nil {
		st.logger.RegisterKnobs(st.ops)
	}
	for _, m := range cfg.middleware {
		rl, ok := m.(*RateLimiter)
		if !ok {
			continue
		}
		st.ops.AddKnob("rate_limit", telemetry.Knob{
			Help: "client publish admission as perSecond[,burst]; perSecond <= 0 disables",
			Get: func() string {
				r, b := rl.Limit()
				return fmt.Sprintf("%g,%d", r, b)
			},
			Set: func(v string) error {
				parts := strings.SplitN(v, ",", 2)
				r, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
				if err != nil {
					return fmt.Errorf("bad rate %q: %v", parts[0], err)
				}
				_, burst := rl.Limit()
				if len(parts) == 2 {
					burst, err = strconv.Atoi(strings.TrimSpace(parts[1]))
					if err != nil {
						return fmt.Errorf("bad burst %q: %v", parts[1], err)
					}
				}
				rl.SetLimit(r, burst)
				return nil
			},
		})
		st.reg.CounterFunc(telemetry.MetricRateLimited,
			"Client publishes rejected by the rate-limiter middleware.",
			func(emit func(telemetry.Labels, float64)) {
				for id, n := range rl.DroppedPerBroker() {
					emit(telemetry.Labels{"broker": string(id)}, float64(n))
				}
			})
	}
	if w, ok := cfg.store.(*store.WAL); ok {
		st.reg.GaugeFunc(telemetry.MetricWALSegments,
			"Write-ahead-log segment files on disk.",
			func(emit func(telemetry.Labels, float64)) {
				if s, err := w.Stats(); err == nil {
					emit(nil, float64(s.Segments))
				}
			})
		st.reg.GaugeFunc(telemetry.MetricWALBytes,
			"Total write-ahead-log bytes on disk (compaction shrinks it).",
			func(emit func(telemetry.Labels, float64)) {
				if s, err := w.Stats(); err == nil {
					emit(nil, float64(s.Bytes))
				}
			})
	}
}

// registerStreams exposes client-side stream depths: snap walks every
// port's subscription streams at scrape time.
func (st *opsStack) registerStreams(snap func(emit func(client NodeID, s streamStat))) {
	st.reg.GaugeFunc(telemetry.MetricStreamBuffered,
		"Deliveries waiting in client subscription streams.",
		func(emit func(telemetry.Labels, float64)) {
			snap(func(client NodeID, s streamStat) {
				emit(telemetry.Labels{"client": string(client), "sub": subLabel(s.id)},
					float64(s.stats.Buffered))
			})
		})
	st.reg.CounterFunc(telemetry.MetricStreamDropped,
		"Deliveries discarded by stream overflow policies.",
		func(emit func(telemetry.Labels, float64)) {
			snap(func(client NodeID, s streamStat) {
				emit(telemetry.Labels{"client": string(client), "sub": subLabel(s.id)},
					float64(s.stats.Dropped))
			})
		})
}

// subLabel renders a stream's metric label ("" is the port's catch-all).
func subLabel(id SubID) string {
	if id == "" {
		return "catch-all"
	}
	return string(id)
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func parseOnOff(v string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("bad toggle %q (want on/off)", v)
}

// parseHeartbeat parses the heartbeat knob's "interval[,timeout]" value
// under WithHeartbeat's conventions (timeout 0 → 3×interval).
func parseHeartbeat(v string) (interval, timeout time.Duration, err error) {
	parts := strings.SplitN(v, ",", 2)
	interval, err = time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad interval %q: %v", parts[0], err)
	}
	if interval <= 0 {
		return 0, 0, fmt.Errorf("bad interval %s: want > 0", interval)
	}
	if len(parts) == 2 {
		timeout, err = time.ParseDuration(strings.TrimSpace(parts[1]))
		if err != nil {
			return 0, 0, fmt.Errorf("bad timeout %q: %v", parts[1], err)
		}
		if timeout != 0 && timeout < interval {
			return 0, 0, fmt.Errorf("bad timeout %s: want >= interval (or 0 for the default)", timeout)
		}
	}
	return interval, timeout, nil
}
