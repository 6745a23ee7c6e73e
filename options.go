package rebeca

import (
	"errors"
	"fmt"
	"io"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/location"
	"rebeca/internal/movement"
	"rebeca/internal/overlay"
	"rebeca/internal/store"
	"rebeca/internal/telemetry"
)

// config is the resolved deployment description New (virtual clock),
// NewLive (TCP) and StartBroker (one TCP broker) build from.
type config struct {
	movement       *movement.Graph
	locations      *location.Model
	reactive       bool
	context        func(b NodeID) ContextResolverFunc
	bufferTTL      time.Duration
	bufferCap      int
	linkLatency    time.Duration
	middleware     []broker.Middleware
	settleQuiet    time.Duration
	settleMax      time.Duration
	window         int
	store          store.Store
	overlay        bool
	hbInterval     time.Duration
	hbTimeout      time.Duration
	linkPendingCap int
	spillStore     store.Store
	spillMax       int64
	opsAddr        string
	mesh           bool
	registry       string
	sampleN        int64
	slowThresh     time.Duration
	logWriter      io.Writer
	logLevel       string
	logging        bool

	errs []error
}

// overlaySettings resolves the heartbeat and queue options into the
// overlay manager's settings (zero fields take the overlay package
// defaults).
func (c *config) overlaySettings() overlay.Settings {
	return overlay.Settings{
		HeartbeatInterval: c.hbInterval,
		HeartbeatTimeout:  c.hbTimeout,
		PendingCap:        c.linkPendingCap,
	}
}

// Option configures a deployment built by New or NewLive.
type Option func(*config)

// applyOptions applies the options over the defaults and reports what they
// rejected. Deployment-specific validation (the movement graph New and
// NewLive need, NewLive's tree-topology requirement) happens in the
// constructors.
func applyOptions(opts []Option) (*config, error) {
	c := &config{
		settleQuiet: 50 * time.Millisecond,
		settleMax:   10 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	return c, nil
}

// newConfig is applyOptions for a whole deployment: the movement graph is
// required, and locations default to one region per broker.
func newConfig(opts []Option) (*config, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if c.movement == nil {
		return nil, errors.New("rebeca: a movement graph is required (WithMovement)")
	}
	if c.locations == nil {
		c.locations = location.Regions(c.movement.Nodes())
	}
	return c, nil
}

// bufferFactory resolves the TTL/cap bounds into a buffer policy factory
// (nil = deployment default, an unbounded buffer).
func (c *config) bufferFactory() buffer.Factory {
	if c.bufferTTL == 0 && c.bufferCap == 0 {
		return nil
	}
	return func() buffer.Policy { return buffer.NewWindow(c.bufferTTL, c.bufferCap) }
}

// WithMovement sets the movement graph. The broker overlay is its spanning
// tree and the replicator neighborhood (nlb) derives from its edges.
// Required.
func WithMovement(g *Graph) Option {
	return func(c *config) {
		if g == nil {
			c.errs = append(c.errs, errors.New("rebeca: WithMovement(nil)"))
			return
		}
		c.movement = g
	}
}

// WithLocations maps brokers to logical location scopes. Defaults to one
// same-named region per broker.
func WithLocations(m *LocationModel) Option {
	return func(c *config) { c.locations = m }
}

// WithReactiveBaseline disables the replicator's pre-subscriptions:
// location-dependent subscriptions resolve only at the client's current
// broker (the paper's reactive baseline).
func WithReactiveBaseline() Option {
	return func(c *config) { c.reactive = true }
}

// WithContextResolver resolves generalized context markers (§4) per broker.
func WithContextResolver(fn func(b NodeID) ContextResolverFunc) Option {
	return func(c *config) { c.context = fn }
}

// WithBufferTTL bounds virtual-client buffers and ghost buffers by age (0 =
// unbounded).
func WithBufferTTL(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithBufferTTL(%s): negative", d))
			return
		}
		c.bufferTTL = d
	}
}

// WithBufferCap bounds virtual-client buffers and ghost buffers by count,
// keeping the newest (0 = unbounded).
func WithBufferCap(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithBufferCap(%d): negative", n))
			return
		}
		c.bufferCap = n
	}
}

// WithLinkLatency sets the simulated per-hop overlay delay (default 1ms).
// NewLive ignores it: real TCP links have real latency.
func WithLinkLatency(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithLinkLatency(%s): negative", d))
			return
		}
		c.linkLatency = d
	}
}

// WithMiddleware appends stages to every broker's extension chain, in the
// given order, after the built-in session layers (mobility manager,
// replicator) — stages observe the traffic the session layers pass
// through. The same instances are installed on every broker; under NewLive
// each broker runs its own event loop, so shared stages must be safe for
// concurrent use (the built-ins are).
func WithMiddleware(ms ...Middleware) Option {
	return func(c *config) {
		for _, m := range ms {
			if m == nil {
				c.errs = append(c.errs, errors.New("rebeca: WithMiddleware(nil)"))
				return
			}
		}
		c.middleware = append(c.middleware, ms...)
	}
}

// WithDeliveryWindow sets the per-client credit window a Live deployment's
// ports announce to their border broker: the broker keeps at most n
// deliveries in flight ahead of the application's consumption, so a
// Block-policy stream exerts backpressure after at most n notifications.
// Default wire.DefaultWindow (64). The virtual-clock System ignores it
// (its network has no transport to flow control).
func WithDeliveryWindow(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithDeliveryWindow(%d): want n > 0", n))
			return
		}
		c.window = n
	}
}

// WithDurable backs the deployment's buffering layers with a persistence
// store: mobility-session (ghost/handover) buffers and replicator
// virtual-client buffers append every notification before it counts as
// buffered and ack only on confirmed delivery or handover, and session
// profiles are snapshotted so a deployment rebuilt on the same store — a
// restarted broker — recovers its disconnected subscribers, re-installs
// their subscriptions and replays the pending backlog exactly once (the
// client library's dedup set suppresses any at-least-once overlap).
//
// Use NewMemoryStore for the virtual-clock System (its Crash and
// fsync-fault hooks drive recovery tests) and OpenWAL for live
// deployments. The same store instance is shared by every broker in the
// deployment; per-broker namespacing is internal.
func WithDurable(s Store) Option {
	return func(c *config) {
		if s == nil {
			c.errs = append(c.errs, errors.New("rebeca: WithDurable(nil)"))
			return
		}
		c.store = s
	}
}

// WithHeartbeat tunes the overlay's link supervision: established
// broker↔broker links exchange KPing/KPong probes every interval, and a
// link silent for longer than timeout is declared failed — it goes
// degraded, outbound messages queue in its bounded pending buffer, and
// the dialing side reconnects with jittered exponential backoff; the sync
// handshake on re-establishment replays routing installs before the
// backlog flushes. timeout 0 defaults to 3×interval.
//
// Under NewLive the overlay manager always supervises broker links (this
// option only tunes it; defaults 1s/3s). Under New the overlay is
// deployed only when this option is given — it adds handshake and
// heartbeat traffic to the virtual network, which the traffic-accounting
// experiments must opt into — and runs on the virtual clock: use
// System.Step to advance through detection and reconnect windows, and
// System.CutLink/HealLink to script link failures.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(c *config) {
		if interval <= 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithHeartbeat(%s, %s): want interval > 0", interval, timeout))
			return
		}
		if timeout != 0 && timeout < interval {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithHeartbeat(%s, %s): want timeout >= interval (or 0 for the default)", interval, timeout))
			return
		}
		c.overlay = true
		c.hbInterval = interval
		c.hbTimeout = timeout
	}
}

// WithLinkSpill makes arbitrarily long partitions survivable: when a
// degraded broker↔broker link's in-memory pending queue reaches its cap,
// overflow spills to the store as a per-link queue ("ovl/<broker>/<peer>")
// instead of being dropped — append-before-evict, replayed in order after
// the re-establishment sync handshake and before fresh traffic, acked on
// confirmed flush and compacted on drain. maxBytes bounds each link's
// spilled bytes (0 = the overlay package default, 256 MiB); past the
// budget the spill drops its own oldest records, counted in
// rebeca_link_spill_dropped_total and rebeca_link_dropped_total. A link
// still replaying its backlog reports "established, flushing" on /readyz.
//
// The store may be the same instance as WithDurable's — queue namespaces
// never collide. Spill IO runs only on paths a healthy link never takes,
// so deployments without this option (or whose links stay up) pay
// nothing. Under New the overlay must be deployed (WithHeartbeat); under
// NewLive it always is.
func WithLinkSpill(s Store, maxBytes int64) Option {
	return func(c *config) {
		if s == nil {
			c.errs = append(c.errs, errors.New("rebeca: WithLinkSpill(nil)"))
			return
		}
		if maxBytes < 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithLinkSpill(%d): negative budget", maxBytes))
			return
		}
		c.spillStore = s
		c.spillMax = maxBytes
	}
}

// WithLinkPendingCap bounds each overlay link's in-memory pending queue
// (default overlay.DefaultSettings' 4096). Messages beyond the cap spill
// to the WithLinkSpill store when one is configured and are dropped
// oldest-first otherwise. Chaos tests use small caps to exercise the
// overflow paths without pumping thousands of messages.
func WithLinkPendingCap(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithLinkPendingCap(%d): want n > 0", n))
			return
		}
		c.linkPendingCap = n
	}
}

// WithMeshRouting lifts the tree requirement on the movement graph: the
// broker overlay becomes the graph itself — every movement edge a broker
// link, cycles legal — instead of its spanning tree. Brokers run a
// replicated spanning-tree election over the declared edges (root =
// lowest broker ID, re-elected on any membership or link change) and
// forward on the elected tree, so the paper's acyclicity invariant holds
// per election epoch while redundant links become failover paths: cut a
// tree link and the next election routes around it. Works under both New
// (combine with WithHeartbeat so CutLink feeds the election) and NewLive.
func WithMeshRouting() Option {
	return func(c *config) { c.mesh = true }
}

// WithRegistry switches a live deployment to registry-driven membership:
// instead of dialing a static neighbor list, every broker registers with
// the named registry (same URIs as rebeca-broker's -registry flag —
// file:<path> or seed:<listen>[,<seed>…]) and a membership
// supervisor per node watches it, dialing discovered peers under the
// deterministic smaller-ID-dials rule and closing links to departed
// ones. Under NewLive each broker registers its movement-graph neighbors,
// so the mesh mirrors the movement graph; a StartBroker broker registers
// none, so the registry links every broker to every other. The
// replicator's nlb is that registered graph. Implies WithMeshRouting. New
// refuses it: the virtual-clock System has no transport for a registry.
func WithRegistry(uri string) Option {
	return func(c *config) {
		if uri == "" {
			c.errs = append(c.errs, errors.New("rebeca: WithRegistry(\"\"): want a registry URI (file: or seed:)"))
			return
		}
		c.registry = uri
		c.mesh = true
	}
}

// WithOps hosts the telemetry subsystem's HTTP operations endpoint on addr
// (e.g. ":9090", or "127.0.0.1:0" to bind an ephemeral port — read it back
// with OpsAddr()). The endpoint serves Prometheus-exposition /metrics,
// /healthz, /readyz (gated on overlay convergence: every broker link
// established and its initial routing sync applied), /trace?note=<id>
// (multi-hop path reconstruction from hop-propagated trace spans),
// GET/POST /config (runtime knobs: heartbeat, rate limits, trace
// verbosity) and net/http/pprof under /debug/pprof/.
//
// The option installs the telemetry middleware stage on every broker and
// wires the deployment's collectors (overlay link state, WAL segments,
// stream buffer depths, codec frame sizes) into one registry. Under
// WithRegistry every broker registers the endpoint's address, which is how
// rebeca-collector finds it. Without it a deployment carries no telemetry
// instrumentation and pays no cost.
func WithOps(addr string) Option {
	return func(c *config) {
		if addr == "" {
			c.errs = append(c.errs, errors.New("rebeca: WithOps(\"\"): want a listen address"))
			return
		}
		c.opsAddr = addr
	}
}

// WithTraceSampling bounds hop tracing to 1-in-n notifications, decided
// by a deterministic hash of the notification ID so every broker on a
// path agrees with no extra wire bits (n <= 1 restores stamp-everything).
// Paths that matter escape the dice: a delivery slower than slow (0
// disables the threshold) and anything hitting a drop/rate-limit/
// flood-fallback branch is retro-captured from a small pending-decision
// ring, tagged with its reason. Both n and slow are runtime-tunable via
// the ops endpoint's "sample" and "slow" knobs.
func WithTraceSampling(n int64, slow time.Duration) Option {
	return func(c *config) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithTraceSampling(%d, %s): negative rate", n, slow))
			return
		}
		if slow < 0 {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithTraceSampling(%d, %s): negative threshold", n, slow))
			return
		}
		if n == 0 {
			n = 1
		}
		c.sampleN = n
		c.slowThresh = slow
	}
}

// WithLogging attaches the deployment's structured log stream: slog text
// lines to w (nil = os.Stderr) from every subsystem — overlay link
// transitions, discovery membership events, spanning-tree recomputations,
// WAL rotation/compaction, wire handshake refusals — each behind its own
// verbosity gate starting at level ("debug", "info", "warn" or "error";
// "" = info). With an ops endpoint, the gates surface as /config
// log.<subsystem> knobs, so verbosity tunes per subsystem at runtime.
func WithLogging(w io.Writer, level string) Option {
	return func(c *config) {
		if level != "" {
			if _, err := telemetry.ParseLevel(level); err != nil {
				c.errs = append(c.errs, fmt.Errorf("rebeca: WithLogging: %v", err))
				return
			}
		}
		c.logging = true
		c.logWriter = w
		c.logLevel = level
	}
}

// WithSettleWindow tunes Live.Settle's quiescence detection: the deployment
// counts as settled after `quiet` with no observable broker or client
// activity; `max` caps the wait. The virtual-clock System ignores it
// (Settle there is exact). Defaults: 50ms quiet, 10s max.
func WithSettleWindow(quiet, max time.Duration) Option {
	return func(c *config) {
		if quiet <= 0 || max <= 0 || max < quiet {
			c.errs = append(c.errs, fmt.Errorf("rebeca: WithSettleWindow(%s, %s): want 0 < quiet <= max", quiet, max))
			return
		}
		c.settleQuiet = quiet
		c.settleMax = max
	}
}

// The deprecated Options struct and NewSystem shim were removed once all
// in-repo callers migrated to functional options; CHANGES.md keeps the
// field-by-field migration table.
