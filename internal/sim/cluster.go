package sim

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/client"
	"rebeca/internal/core"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/mobility"
	"rebeca/internal/movement"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
	"rebeca/internal/session"
	"rebeca/internal/store"
)

// ClusterConfig describes a complete middleware deployment for simulation.
type ClusterConfig struct {
	// Topology is the broker overlay, any connected graph. If empty, it is
	// derived as a spanning tree of Movement. Brokers run the replicated
	// spanning-tree election over the declared edges (root = lowest ID) and
	// forward on the elected tree, which on a tree is every edge; on a
	// cyclic graph redundant links become failover paths. Combine with
	// Overlay so CutLink feeds the election — the link managers report the
	// failure, brokers re-elect, and traffic reroutes over a surviving
	// edge. The election itself is message-driven (no timers), so Settle
	// drains re-convergence like any other traffic.
	Topology broker.Topology
	// Movement is the movement graph (defines nlb). Optional when no
	// replicators are deployed.
	Movement *movement.Graph
	// Strategy selects the routing algorithm (default simple).
	// StrategyCovering is E3's ablation with static clients: NewCluster
	// refuses it beside a mobility or replication layer.
	Strategy routing.Strategy
	// Locations maps brokers to logical scopes. Optional.
	Locations *location.Model
	// Context resolves generalized context markers per broker (§4).
	Context func(b message.NodeID) filter.ContextResolver
	// Mobility deploys a physical-mobility manager per broker (0 = none).
	Mobility MobilityMode
	// Replication deploys a replicator per broker.
	Replication ReplicationMode
	// BufferFactory builds ghost/virtual-client buffers (default unbounded).
	BufferFactory buffer.Factory
	// SharedBuffers switches replicators to shared per-broker stores (E8).
	SharedBuffers bool
	// Store, when non-nil, backs mobility-session and replicator buffers
	// with persistence queues and session profiles with snapshots; after
	// construction every manager runs Recover, so a cluster built on a
	// previously used store resumes its ghost sessions (the simulated
	// broker-restart scenario).
	Store store.Store
	// Middleware is appended to every broker's extension chain, after the
	// session layers — stages see the traffic the session layers pass
	// through. Instances are shared across brokers (the sim runs one
	// event loop, so unsynchronized stages are fine here).
	Middleware []broker.Middleware
	// Overlay, when non-nil, deploys a per-broker overlay manager over the
	// simulated links: the same link state machine the live TCP runner
	// hosts, driven by the virtual clock — sync handshakes on
	// (re-)establishment, heartbeat failure detection, backoff redials and
	// bounded pending queues. Combine with the network's CutLink/HealLink
	// to script link-failure scenarios deterministically. When nil (the
	// default), brokers send to peers directly — the pre-overlay behavior
	// every traffic-accounting experiment assumes.
	Overlay *overlay.Settings
	// LinkSpill, when non-nil, backs every overlay link's pending queue
	// with persistent storage: overflow beyond the pending cap spills to
	// a per-link store queue ("ovl/<broker>/<peer>") and replays in order
	// on re-establishment instead of being dropped. Requires Overlay. The
	// store may be the same instance as Store — queue names never
	// collide.
	LinkSpill store.Store
	// LinkSpillBudget bounds each link's spilled bytes (default
	// overlay.DefaultSpillBudget). Only meaningful with LinkSpill.
	LinkSpillBudget int64
	// LinkLatency is the per-hop overlay delay (default 1ms).
	LinkLatency time.Duration
	// LatencyJitter adds a uniform random delay in [0, LatencyJitter) to
	// every transmission (deterministic given JitterSeed). Per-link FIFO
	// order is preserved by the network's delivery clamp.
	LatencyJitter time.Duration
	// JitterSeed seeds the jitter source.
	JitterSeed int64
	// DirectLatency is the replicator out-of-band delay (default 2×link).
	DirectLatency time.Duration
	// OverlayLogger, when non-nil, gives every simulated overlay manager
	// a structured logger for link transitions.
	OverlayLogger *slog.Logger
	// BrokerLogger, when non-nil, is attached to every simulated broker
	// core (spanning-tree recomputations, flood fallbacks).
	BrokerLogger *slog.Logger
}

// MobilityMode is the physical-mobility protocol a cluster deploys on every
// broker; the zero value deploys no manager.
type MobilityMode int

// Mobility deployment modes.
const (
	MobilityNone MobilityMode = iota
	MobilityTransparent
	MobilityJEDI
	// MobilityNaive deploys no manager either — the broker's default
	// session handling is the reconnect-and-resubscribe baseline — but,
	// unlike the zero value, a Scenario does not default it to transparent.
	MobilityNaive
)

// protocol is the manager mode session.Attach deploys (ModeInvalid = none).
func (m MobilityMode) protocol() mobility.Mode {
	switch m {
	case MobilityTransparent:
		return mobility.ModeTransparent
	case MobilityJEDI:
		return mobility.ModeJEDI
	}
	return mobility.ModeInvalid
}

// ReplicationMode selects the logical-mobility deployment.
type ReplicationMode int

// Replication deployment modes.
const (
	// ReplicationNone deploys no replicators: location-dependent
	// subscriptions match nothing (they stay unresolved).
	ReplicationNone ReplicationMode = iota
	// ReplicationPreSubscribe deploys the paper's replicator layer.
	ReplicationPreSubscribe
	// ReplicationReactive deploys replicators without pre-subscriptions:
	// myloc resolution happens only at the client's current broker.
	ReplicationReactive
)

// Cluster is an assembled deployment: network, brokers, session layers,
// clients.
type Cluster struct {
	Net         *Network
	Topology    broker.Topology
	Brokers     map[message.NodeID]*broker.Broker
	Managers    map[message.NodeID]*mobility.Manager
	Replicators map[message.NodeID]*core.Replicator
	Shared      map[message.NodeID]*buffer.Shared
	Clients     map[message.NodeID]*client.Client
	// Overlays holds the per-broker overlay managers (nil map without
	// ClusterConfig.Overlay).
	Overlays map[message.NodeID]*overlay.Manager
	cfg      ClusterConfig
}

// NewCluster builds a deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	topo := cfg.Topology
	if len(topo.Edges) == 0 {
		if cfg.Movement == nil {
			return nil, fmt.Errorf("sim: cluster needs a topology or a movement graph")
		}
		topo = broker.Topology{Edges: cfg.Movement.SpanningTree()}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == routing.StrategyCovering && (cfg.Mobility != MobilityNone || cfg.Replication != ReplicationNone) {
		return nil, errors.New("sim: covering routing is not relocation-aware; it runs with static clients only (no mobility or replication layer)")
	}
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = DefaultLatency
	}
	if cfg.DirectLatency == 0 {
		cfg.DirectLatency = 2 * cfg.LinkLatency
	}

	net := NewNetwork()
	if cfg.LatencyJitter > 0 {
		rng := rand.New(rand.NewSource(cfg.JitterSeed))
		net.Latency = func(message.NodeID, message.NodeID) time.Duration {
			return cfg.LinkLatency + time.Duration(rng.Int63n(int64(cfg.LatencyJitter)))
		}
	} else {
		net.Latency = func(message.NodeID, message.NodeID) time.Duration { return cfg.LinkLatency }
	}
	net.DirectLatency = func(message.NodeID, message.NodeID) time.Duration { return cfg.DirectLatency }

	c := &Cluster{
		Net:         net,
		Topology:    topo,
		Brokers:     make(map[message.NodeID]*broker.Broker),
		Managers:    make(map[message.NodeID]*mobility.Manager),
		Replicators: make(map[message.NodeID]*core.Replicator),
		Shared:      make(map[message.NodeID]*buffer.Shared),
		Clients:     make(map[message.NodeID]*client.Client),
		cfg:         cfg,
	}

	adj := topo.Adjacency()
	var nlb func(message.NodeID) []message.NodeID
	if cfg.Movement != nil {
		nlb = cfg.Movement.NLB()
	}
	sessions := session.Config{
		SharedBuffers: cfg.SharedBuffers,
		Mobility:      cfg.Mobility.protocol(),
		BufferFactory: cfg.BufferFactory,
		Store:         cfg.Store,
		Middleware:    cfg.Middleware,
	}
	if cfg.Replication != ReplicationNone {
		sessions.Replication = &core.Config{
			NLB:          nlb,
			Locations:    cfg.Locations,
			Context:      cfg.Context,
			PreSubscribe: cfg.Replication == ReplicationPreSubscribe,
		}
	}
	var layers []session.Layers

	for _, id := range topo.Nodes() {
		id := id
		peerOf := make(map[message.NodeID]bool, len(adj[id]))
		for _, p := range adj[id] {
			peerOf[p] = true
		}
		b := broker.New(broker.Config{
			ID:       id,
			Strategy: cfg.Strategy,
			Send: func(to message.NodeID, m proto.Message) {
				// With an overlay deployed, peer links are supervised:
				// messages for a down link queue and flush after its sync
				// handshake instead of being dropped on the floor.
				if mgr := c.Overlays[id]; mgr != nil && peerOf[to] {
					mgr.Send(to, m)
					return
				}
				net.Send(id, to, m)
			},
			SendDirect: func(to message.NodeID, m proto.Message) {
				net.SendDirect(id, to, m)
			},
			Now: net.Now,
		})
		c.Brokers[id] = b
		if cfg.BrokerLogger != nil {
			b.SetLogger(cfg.BrokerLogger)
		}
		// Seed the full declared graph before any link events: the first
		// election gives the broker its tree links and next hops.
		b.SetMeshTopology(topo.Nodes(), topo.Edges)
		net.AddNode(id, EndpointFunc(func(from message.NodeID, m proto.Message) {
			if mgr := c.Overlays[id]; mgr != nil && peerOf[from] {
				if mgr.HandleControl(from, 0, m) {
					return
				}
			}
			b.HandleMessage(from, m)
		}))

		l := session.Attach(b, sessions)
		layers = append(layers, l)
		if l.Replicator != nil {
			c.Replicators[id] = l.Replicator
		}
		if l.Manager != nil {
			c.Managers[id] = l.Manager
		}
		if l.Shared != nil {
			c.Shared[id] = l.Shared
		}
	}
	// Overlay pass: deploy the same link state machine the live TCP
	// runner hosts, driven by the virtual clock. Managers are built
	// first, then peers added (AddPeer on the dialer side synchronously
	// attempts the first dial, which needs both ends' managers to exist).
	// The deterministic convention: the lexicographically smaller broker
	// dials each edge.
	if cfg.Overlay != nil {
		c.Overlays = make(map[message.NodeID]*overlay.Manager, len(topo.Nodes()))
		for _, id := range topo.Nodes() {
			id := id
			b := c.Brokers[id]
			c.Overlays[id] = overlay.New(overlay.Config{
				Self:        id,
				Settings:    *cfg.Overlay,
				Spill:       cfg.LinkSpill,
				SpillBudget: cfg.LinkSpillBudget,
				Now:         net.Now,
				Transmit: func(peer message.NodeID, m proto.Message) error {
					// A cut link refuses the send — the closed-conn
					// analog — so the manager queues instead of feeding
					// the drop counter.
					if !net.Linked(id, peer) {
						return fmt.Errorf("sim: link %s-%s is cut", id, peer)
					}
					net.Send(id, peer, m)
					return nil
				},
				Dial:      func(peer message.NodeID) { c.dialSim(id, peer) },
				Schedule:  net.Background,
				SyncState: b.SyncInstalls,
				ApplySync: b.ApplySyncInstalls,
				Observer:  b.NotifyLinkChange,
				Logger:    cfg.OverlayLogger,
			})
			b.RepairTreeThrough(c.Overlays[id])
		}
		// Passive sides first: the dialer's AddPeer dials synchronously,
		// and the sim's "accept" is the peer manager's LinkUp — the peer
		// must already know the link.
		for _, id := range topo.Nodes() {
			for _, p := range adj[id] {
				if id > p {
					c.Overlays[id].AddPeer(p, false)
				}
			}
		}
		for _, id := range topo.Nodes() {
			for _, p := range adj[id] {
				if id < p {
					c.Overlays[id].AddPeer(p, true)
				}
			}
		}
	}
	// Recovery pass: a cluster built on a previously used store resumes
	// the persisted ghost sessions. The re-installed subscriptions are
	// forwarded as ordinary KSubscribe traffic, queued on the virtual
	// network and drained by the first Run/Settle.
	if cfg.Store != nil {
		for _, l := range layers {
			l.Recover()
		}
	}
	return c, nil
}

// dialSim models one dial attempt over the simulated fabric: it succeeds
// iff the link is intact, bringing the physical link up on both ends at
// once (the acceptor side learns of the connection like a TCP accept).
func (c *Cluster) dialSim(from, to message.NodeID) {
	if !c.Net.Linked(from, to) {
		c.Overlays[from].DialFailed(to)
		return
	}
	c.Overlays[from].LinkUp(to)
	c.Overlays[to].LinkUp(from)
}

// CutLink severs an overlay link (both directions). With an overlay
// deployed the link managers notice — instantly on the next send, or via
// heartbeat timeout when idle — go degraded, queue outbound traffic and
// probe for re-establishment; without one, transmissions are simply
// dropped.
func (c *Cluster) CutLink(a, b message.NodeID) { c.Net.CutLink(a, b) }

// HealLink restores a severed link; the dialer side's backoff probe
// re-establishes it (advance the virtual clock to let the probe fire).
func (c *Cluster) HealLink(a, b message.NodeID) { c.Net.HealLink(a, b) }

// AddClient creates a client endpoint on the network. On a durable
// deployment the client's publisher identity (epoch + sequence floor)
// persists in the store, so a client re-added under the same ID — a
// restarted publisher — continues its sequence space instead of
// restarting at 1 and confusing subscriber dedup state.
func (c *Cluster) AddClient(id message.NodeID) *client.Client {
	cl := client.New(id, &netTransport{net: c.Net, id: id}, c.Net.Now)
	if c.cfg.Store != nil {
		cl.UseDurablePublisher(c.cfg.Store)
	}
	c.Clients[id] = cl
	c.Net.AddNode(id, EndpointFunc(cl.Receive))
	return cl
}

// netTransport is a client session's transport on the simulated network:
// the address is the border's broker ID, and every message is a
// Network.Send over the client↔border link.
type netTransport struct {
	net    *Network
	id     message.NodeID
	border message.NodeID
}

func (t *netTransport) Attach(addr string, hello proto.Message) (message.NodeID, error) {
	t.border = message.NodeID(addr)
	t.net.Send(t.id, t.border, hello)
	return t.border, nil
}

// Send queues m on the network. The event queue keeps it past the call, so
// the notifications go in as copies: the session reuses its publish buffer
// and the attribute maps are the publishing caller's (client.Transport).
func (t *netTransport) Send(m proto.Message) error {
	if m.Note != nil {
		n := m.Note.Clone()
		m.Note = &n
	}
	if m.Notes != nil {
		notes := make([]message.Notification, len(m.Notes))
		for i := range m.Notes {
			notes[i] = m.Notes[i].Clone()
		}
		m.Notes = notes
	}
	t.net.Send(t.id, t.border, m)
	return nil
}

func (t *netTransport) Disconnect() error {
	t.net.Send(t.id, t.border, proto.Message{Kind: proto.KDisconnect, Client: t.id})
	return nil
}

// Broker returns the named broker (panics on unknown ID — scenario bug).
func (c *Cluster) Broker(id message.NodeID) *broker.Broker {
	b, ok := c.Brokers[id]
	if !ok {
		panic(fmt.Sprintf("sim: unknown broker %s", id))
	}
	return b
}

// TotalTableEntries sums routing-table sizes across brokers (E3/E6 metric).
func (c *Cluster) TotalTableEntries() int {
	total := 0
	for _, b := range c.Brokers {
		total += b.Router().Table().Len()
	}
	return total
}

// TotalResidentVCs sums virtual clients across replicators (E6 metric).
func (c *Cluster) TotalResidentVCs() int {
	total := 0
	for _, r := range c.Replicators {
		total += r.ResidentVirtualClients()
	}
	return total
}
