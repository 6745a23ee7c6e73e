package rebeca

import (
	"errors"
	"fmt"
	"net"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/core"
	"rebeca/internal/discovery"
	"rebeca/internal/location"
	"rebeca/internal/mobility"
	"rebeca/internal/session"
	"rebeca/internal/telemetry"
	"rebeca/internal/wire"
)

// BrokerSpec is what only a one-broker process knows about itself — the
// part of a deployment that NewLive derives from the movement graph and a
// distributed fleet has to be told per process. Everything else
// (durability, heartbeat, link spill, registry, ops endpoint, sampling,
// logging, middleware) is configured with the same Options New and
// NewLive take. Every broker runs the transparent mobility manager and the
// replicator, whose nlb is the graph the broker routes on (see WithRegistry).
// The zero value of every field but ID is rebeca-broker's default.
type BrokerSpec struct {
	// ID names this broker.
	ID NodeID
	// Listen is the TCP address to accept links and clients on ("" binds an
	// ephemeral loopback port).
	Listen string
	// Advertise is the address registered for peers to dial under
	// WithRegistry ("" = the bound listen address, an unspecified host
	// rewritten to 127.0.0.1). Its host also replaces an unspecified host
	// of the WithOps address registered for a collector to scrape.
	Advertise string
	// Edges is the full static overlay, the same list on every broker of
	// the fleet; this broker's neighbors, its unicast next hops and the
	// replicator's nlb derive from it. It must be a tree unless
	// WithMeshRouting is given. Leave empty under WithRegistry, which links
	// whatever brokers the registry names.
	Edges [][2]NodeID
	// Dial maps the neighbors this broker actively connects to onto their
	// addresses; exactly one side of each edge dials, the other accepts.
	Dial map[NodeID]string
	// RegistryTTL stamps this broker's file-registry entry with a lease and
	// keeps refreshing it, so a killed broker's registration ages out (0 =
	// entries never expire; file: registries only).
	RegistryTTL time.Duration
}

// BrokerNode is one running live broker: the handle StartBroker returns,
// and the unit NewLive assembles a loopback deployment from.
type BrokerNode struct {
	id     NodeID
	node   *wire.Node
	layers session.Layers
	member *discovery.Membership // nil without WithRegistry
	reg    discovery.Registry
	ops    *opsStack // shared by every node of a Live
}

// startNode is the one assembly of a live broker: the wire node and its
// overlay manager, mesh routing, the session layers and middleware chain,
// the listener, registry membership, recovery of persisted sessions, and
// the node's probes on the ops stack — in that order. topo is the static
// overlay (a lone broker under a registry has none): the broker's
// neighbors — the links it configures or, under a registry, the adjacency
// it registers — and its unicast next hops derive from it. The replicator's
// nlb is topo's adjacency on a tree, and the mesh's declared graph (topo,
// or the registry's snapshots) on a mesh. A failure closes what was started.
func startNode(cfg *config, ops *opsStack, spec BrokerSpec, topo broker.Topology) (*BrokerNode, error) {
	adj := topo.Adjacency()
	neighbors := adj[spec.ID]
	ncfg := wire.NodeConfig{
		ID:      spec.ID,
		Listen:  spec.Listen,
		NextHop: topo.NextHops()[spec.ID],
		// Live brokers always run the overlay manager (WithHeartbeat only
		// tunes it): links queue-then-flush across flaps and restarted
		// neighbors are redialed with backoff.
		Overlay:       cfg.overlaySettings(),
		Spill:         cfg.spillStore,
		SpillBudget:   cfg.spillMax,
		Logger:        ops.logFor("wire"),
		OverlayLogger: ops.logFor("overlay"),
		BrokerLogger:  ops.logFor("broker"),
	}
	if cfg.registry == "" {
		// Static links; under a registry the membership supervisor adds
		// them as peers register.
		ncfg.Peers = make(map[NodeID]string, len(neighbors))
		for _, p := range neighbors {
			ncfg.Peers[p] = spec.Dial[p] // "" = the neighbor dials us
		}
	}
	if ops != nil {
		ncfg.FrameObserver = ops.frameObserver(spec.ID)
	}
	n := &BrokerNode{id: spec.ID, node: wire.NewNode(ncfg), ops: ops}
	nlb := func(id NodeID) []NodeID { return adj[id] }
	if cfg.mesh {
		n.node.EnableMesh()
		nlb = n.node.Broker().Mesh().Neighbors
	}
	n.layers = session.Attach(n.node.Broker(), session.Config{
		Replication: &core.Config{
			NLB:          nlb,
			Locations:    cfg.locations,
			Context:      cfg.context,
			PreSubscribe: !cfg.reactive,
		},
		Mobility:      mobility.ModeTransparent,
		BufferFactory: cfg.bufferFactory(),
		Store:         cfg.store,
		Middleware:    cfg.middleware,
	})
	if cfg.registry != "" {
		reg, err := discovery.Open(cfg.registry)
		if err != nil {
			return nil, err
		}
		n.reg = reg
		if spec.RegistryTTL > 0 {
			fr, ok := reg.(*discovery.FileRegistry)
			if !ok {
				n.abort()
				return nil, errors.New("rebeca: a registry TTL needs a file: registry (the gossip backend detects failures on its own)")
			}
			fr.SetTTL(spec.RegistryTTL)
		}
	}
	if err := n.node.Start(); err != nil {
		n.abort()
		return nil, err
	}
	if cfg.mesh && cfg.registry == "" {
		// Static mesh: seed the full declared graph so the election
		// replaces the raw adjacency before traffic flows. Registry
		// deployments get their graph from membership snapshots.
		n.node.SetMeshTopology(topo.Nodes(), topo.Edges)
	}
	if n.reg != nil {
		// After the node serves, so link commands land on a live overlay
		// manager: link bring-up is driven entirely by registry snapshots.
		addr := spec.Advertise
		if addr == "" {
			addr = advertiseAddr(n.node.Addr(), "")
		}
		n.member = discovery.NewMembership(discovery.MembershipConfig{
			Self: spec.ID,
			Addr: addr,
			// The ops endpoint is bound by now; a collector reading the
			// registry scrapes it, on the advertised host.
			Ops:      advertiseAddr(ops.addr(), spec.Advertise),
			Peers:    neighbors,
			Registry: n.reg,
			Host:     n.node,
			Logger:   ops.logFor("discovery"),
		})
		if err := n.member.Start(); err != nil {
			n.abort()
			return nil, err
		}
		if l := ops.logFor("discovery"); l != nil {
			l.Info("registered with registry", "self", string(spec.ID), "addr", addr, "registry", cfg.registry)
		}
	}
	if cfg.store != nil {
		// Resume the sessions a previous process persisted on this store.
		// Start order does not matter: re-installed subscriptions reach
		// neighbors whose links are already up at once, and every link that
		// establishes later replays them in its sync handshake. The node is
		// serving, so the mutation runs on its event loop like any other.
		recovered := 0
		n.node.Inspect(func(*broker.Broker) { recovered = n.layers.Recover() })
		if l := ops.logFor("store"); l != nil && recovered > 0 {
			l.Info("recovered durable sessions", "broker", string(spec.ID), "sessions", recovered)
		}
	}
	if ops != nil {
		ops.watchNode(spec.ID, n.node, n.member)
	}
	return n, nil
}

// leave takes the broker out of its registry: deregistering before the node
// stops lets the fleet converge on the departure without waiting for
// failure detection.
func (n *BrokerNode) leave() {
	if n.member != nil {
		n.member.Stop(true)
	}
	if n.reg != nil {
		_ = n.reg.Close()
	}
}

// stop lets in-flight deliveries and buffer appends run to completion for
// at most drain, then stops the node and drops its links.
func (n *BrokerNode) stop(drain time.Duration) error {
	if drain > 0 && !n.node.Drain(drain) {
		if l := n.ops.logFor("wire"); l != nil {
			l.Warn("drain timed out; closing anyway", "broker", string(n.id))
		}
	}
	return n.node.Close()
}

// abort closes what a failed startNode had started.
func (n *BrokerNode) abort() {
	n.leave()
	_ = n.stop(0)
}

// StartBroker starts one live broker — what rebeca-broker runs, and the
// same assembly NewLive runs once per broker of a loopback deployment. The
// options are the ones New and NewLive take, less WithMovement, which it
// refuses: the movement graph is spec.Edges. WithLocations defaults to one
// region for spec.ID, the one broker its replicator resolves myloc against.
// The caller owns the stores it passes (WithDurable, WithLinkSpill) and
// closes them after the node.
func StartBroker(spec BrokerSpec, opts ...Option) (*BrokerNode, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if spec.ID == "" {
		return nil, errors.New("rebeca: BrokerSpec.ID is required")
	}
	if (cfg.registry == "") == (len(spec.Edges) == 0) {
		return nil, errors.New("rebeca: a broker needs either static BrokerSpec.Edges or WithRegistry, not both")
	}
	if cfg.registry != "" && len(spec.Dial) > 0 {
		return nil, errors.New("rebeca: WithRegistry replaces BrokerSpec.Dial; drop the static wiring")
	}
	if cfg.movement != nil {
		return nil, errors.New("rebeca: BrokerSpec.Edges is the movement graph; drop WithMovement")
	}
	if spec.Listen == "" {
		spec.Listen = "127.0.0.1:0"
	}
	topo := broker.Topology{Edges: spec.Edges}
	if cfg.registry == "" {
		if err := cfg.validateOverlay(topo); err != nil {
			return nil, err
		}
		if _, ok := topo.Adjacency()[spec.ID]; !ok {
			return nil, fmt.Errorf("rebeca: broker %s does not appear in BrokerSpec.Edges", spec.ID)
		}
	}
	if cfg.locations == nil {
		cfg.locations = location.Regions([]NodeID{spec.ID})
	}
	ops, err := newOpsStack(cfg)
	if err != nil {
		return nil, err
	}
	n, err := startNode(cfg, ops, spec, topo)
	if err != nil {
		ops.close()
		return nil, err
	}
	if ops != nil {
		ops.start(cfg)
	}
	return n, nil
}

// validateOverlay checks a static overlay for the routing the options
// chose: connected under mesh routing, a tree otherwise.
func (c *config) validateOverlay(topo broker.Topology) error {
	if c.mesh {
		return topo.ValidateConnected()
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("rebeca: a live deployment needs a tree movement graph (%w); opt into WithMeshRouting to run a cyclic mesh", err)
	}
	return nil
}

// Addr returns the bound TCP address links and clients connect to.
func (n *BrokerNode) Addr() string { return n.node.Addr() }

// OpsAddr returns the bound address of the HTTP operations endpoint (""
// without WithOps).
func (n *BrokerNode) OpsAddr() string { return n.ops.addr() }

// Ready reports overlay convergence as /readyz does: every link established
// and routing-synced and, under a registry, a membership snapshot observed
// that includes this broker. detail names what is still waited on.
func (n *BrokerNode) Ready() (ok bool, detail string) {
	if ok, detail = n.node.Ready(); ok && n.member != nil {
		return n.member.Ready()
	}
	return ok, detail
}

// StatsLine renders a one-line digest of the registry /metrics serves (when
// WithOps or WithLogging put a telemetry stage on the chain) and of every
// overlay link.
func (n *BrokerNode) StatsLine() string {
	line := "stats:"
	if n.ops != nil {
		reg := n.ops.reg
		avg := time.Duration(0)
		if sum, count := reg.HistogramStats(telemetry.MetricE2ESeconds); count > 0 {
			avg = time.Duration(sum / float64(count) * float64(time.Second))
		}
		line += fmt.Sprintf(" publishes=%d deliveries=%d subscribes=%d avg-latency=%s rate-limited=%d link-establishments=%d link-failures=%d relocations=%d recovered=%d recovery-errors=%d",
			int(reg.Total(telemetry.MetricPublishes)),
			int(reg.Total(telemetry.MetricDeliveries)),
			int(reg.Total(telemetry.MetricSubscribes)),
			avg,
			int(reg.Total(telemetry.MetricRateLimited)),
			int(reg.Total(telemetry.MetricLinkUps)),
			int(reg.Total(telemetry.MetricLinkDowns)),
			int(reg.Total(telemetry.MechanismMetric(broker.MobilityRelocations))),
			int(reg.Total(telemetry.MechanismMetric(broker.MobilityRecoveredSessions))),
			int(reg.Total(telemetry.MechanismMetric(broker.MobilityRecoveryErrors))))
	}
	for _, li := range n.node.Info() {
		line += fmt.Sprintf(" link[%s]=%s", li.Peer, li.State)
		if li.Pending > 0 {
			line += fmt.Sprintf("(+%d queued)", li.Pending)
		}
		if li.SpillDepth > 0 {
			line += fmt.Sprintf("(spill=%d/%dB)", li.SpillDepth, li.SpillBytes)
		}
	}
	return line
}

// Close shuts the broker down in order: deregister from the registry (the
// fleet converges on the departure without failure detection), close the
// ops endpoint, drain in-flight deliveries for at most
// drain (0 skips the wait), then stop the node and drop its links. Stores
// passed in through options stay open: sync and close them afterwards, once
// nothing can append anymore.
func (n *BrokerNode) Close(drain time.Duration) error {
	n.leave()
	n.ops.close()
	return n.stop(drain)
}

// advertiseAddr turns a bound listen address into one others can dial: an
// unspecified host (":7471", "[::]:7471", "0.0.0.0:7471") becomes the host
// of advertise (BrokerSpec.Advertise), or 127.0.0.1 without one — right
// for single-machine fleets; multi-host deployments set Advertise.
func advertiseAddr(bound, advertise string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
		if h, _, err := net.SplitHostPort(advertise); err == nil && h != "" {
			host = h
		}
	}
	return net.JoinHostPort(host, port)
}
