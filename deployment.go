package rebeca

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/client"
	"rebeca/internal/sim"
)

// MaxBatchFrame is the largest number of notifications PublishBatch packs
// into one wire message; larger batches are split, with the submission
// context checked between frames.
const MaxBatchFrame = 256

// ErrNotConnected is returned by Port operations that need a live link to a
// border broker.
var ErrNotConnected = client.ErrNotConnected

// ErrUnknownBroker is returned by Port.Connect for a broker ID outside the
// deployment.
var ErrUnknownBroker = errors.New("rebeca: unknown broker")

// Deployment is the common surface over the two ways to run the
// middleware: the virtual-clock System (New) and the TCP-backed Live
// (NewLive). The same client code, middleware and tests drive both.
type Deployment interface {
	// NewClient creates a client endpoint, not yet connected.
	NewClient(id NodeID) Port
	// Brokers lists the deployment's broker IDs.
	Brokers() []NodeID
	// Settle waits until in-flight traffic has drained: exactly (to
	// quiescence of the event queue) under System, heuristically (a quiet
	// window on broker and client activity, see WithSettleWindow) under
	// Live.
	Settle()
	// Close tears the deployment down. System's Close is a no-op.
	Close() error
}

// Port is the deployment-independent client surface: the pub/sub triple,
// roaming, and delivery accounting. Commands (Connect, Subscribe, Publish,
// …) are driven from one goroutine. Deliveries reach the application only
// through streams — each Subscription's Events, the port's catch-all
// Events, or the OnNotify adapter over it — consumed from any goroutine;
// the port keeps no delivery history. Deliveries arrive between calls
// (System) or concurrently (Live).
type Port interface {
	// ID returns the client's node ID.
	ID() NodeID
	// Connect attaches to a border broker (roaming to it if already
	// connected elsewhere).
	Connect(broker NodeID) error
	// Disconnect drops the wireless link.
	Disconnect() error
	// Border returns the current border broker ("" while disconnected).
	Border() NodeID
	// Subscribe registers interest and returns the subscription's handle:
	// its bounded event stream, overflow policy and lifecycle. The
	// subscription joins the roaming profile until its Cancel.
	Subscribe(f Filter, opts ...SubOption) *Subscription
	// SubscribeAt registers a location-dependent subscription (myloc)
	// with default stream options; use Subscribe(AtLocation(cs...), …)
	// to configure the stream.
	SubscribeAt(cs ...Constraint) *Subscription
	// Publish emits a notification (requires a connection).
	Publish(attrs map[string]Value) (NotificationID, error)
	// PublishBatch emits several notifications framed as batch wire
	// messages to the border broker (up to MaxBatchFrame notifications
	// per frame), which unpacks and routes each like an individual
	// Publish. ctx is checked between frames — a Live publisher blocked
	// by downstream flow control stops at the next frame boundary (a
	// send already stalled on the link is not interrupted mid-frame) —
	// and the IDs of everything already framed are returned with the
	// ctx error.
	PublishBatch(ctx context.Context, batch []map[string]Value) ([]NotificationID, error)
	// Events returns the port's catch-all stream: every fresh delivery,
	// whichever subscription it matched, under a DropOldest bound.
	Events() <-chan Delivery
	// OnNotify registers an observer that synchronously consumes the
	// catch-all stream — the callback adapter over Events. Registration
	// discards any backlog already buffered in the stream: the callback
	// observes deliveries from registration on. Register either an
	// observer or a consumer of Events, not both.
	OnNotify(fn func(n Notification))
	// Duplicates counts suppressed duplicate deliveries.
	Duplicates() int
	// FIFOViolations counts per-publisher sequence inversions.
	FIFOViolations() int
}

// System is an in-process middleware deployment on a virtual clock, backed
// by the discrete-event simulator: deterministic, instant, and ideal for
// experiments and tests. It implements Deployment.
type System struct {
	cluster *sim.Cluster
	ops     *opsStack
	ports   portSet
}

var _ Deployment = (*System)(nil)

// New builds a full in-process deployment from the options: brokers linked
// along every movement edge and routing on the spanning tree they elect
// over it (a sorted BFS from the lowest ID, the graph's SpanningTree), a
// transparent physical-mobility manager and a replicator on every broker,
// and the configured middleware chain. NewLive accepts the same graphs.
func New(opts ...Option) (*System, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.registry != "" {
		return nil, errors.New("rebeca: WithRegistry needs a live deployment (NewLive); under New declare the overlay as the movement graph")
	}
	repl := sim.ReplicationPreSubscribe
	if cfg.reactive {
		repl = sim.ReplicationReactive
	}
	// Before cluster construction: the telemetry stage joins the chain
	// every broker installs.
	ops, err := newOpsStack(cfg)
	if err != nil {
		return nil, err
	}
	scfg := sim.ClusterConfig{
		// The overlay is the movement graph itself, cycles and all; the
		// brokers' replicated election picks the forwarding tree.
		Topology:      broker.Topology{Edges: cfg.movement.Edges()},
		Movement:      cfg.movement,
		Locations:     cfg.locations,
		Context:       cfg.context,
		Mobility:      sim.MobilityTransparent,
		Replication:   repl,
		BufferFactory: cfg.bufferFactory(),
		Middleware:    cfg.middleware,
		LinkLatency:   cfg.linkLatency,
		Store:         cfg.store,
		OverlayLogger: ops.logFor("overlay"),
		BrokerLogger:  ops.logFor("broker"),
	}
	if cfg.overlay {
		set := cfg.overlaySettings()
		scfg.Overlay = &set
	}
	if cfg.spillStore != nil {
		if !cfg.overlay {
			ops.close()
			return nil, errors.New("rebeca: WithLinkSpill under New needs the overlay deployed (WithHeartbeat)")
		}
		scfg.LinkSpill = cfg.spillStore
		scfg.LinkSpillBudget = cfg.spillMax
	}
	cl, err := sim.NewCluster(scfg)
	if err != nil {
		ops.close()
		return nil, err
	}
	s := &System{cluster: cl, ops: ops}
	if ops == nil {
		return s, nil
	}
	// The virtual-clock flavor hosts the same endpoint the live deployment
	// does — useful for watching a long-running experiment — with readiness
	// derived from the simulated overlay managers (a System built without
	// WithHeartbeat deploys no overlay and is trivially ready).
	for _, id := range s.Brokers() {
		if mgr := cl.Overlays[id]; mgr != nil {
			ops.supervise(id, mgr)
		}
	}
	ops.registerStreams(s.ports.emitStreams)
	ops.start(cfg)
	return s, nil
}

// OpsAddr returns the bound address of the telemetry subsystem's HTTP
// endpoint ("" without WithOps).
func (s *System) OpsAddr() string { return s.ops.addr() }

// NewClient creates a client endpoint: a session on the simulated network,
// addressed by broker ID.
func (s *System) NewClient(id NodeID) Port {
	return s.ports.add(newPort(s.cluster.AddClient(id), s.brokerAddr))
}

// Brokers lists the deployment's broker IDs.
func (s *System) Brokers() []NodeID { return s.cluster.Topology.Nodes() }

// Settle runs the virtual clock until no messages remain in flight.
func (s *System) Settle() { s.cluster.Net.Run() }

// Close implements Deployment: the virtual deployment has no transport to
// tear down, but every port's streams are cancelled so range loops over
// their Events channels terminate.
func (s *System) Close() error {
	for _, p := range s.ports.all() {
		p.streams.closeAll()
	}
	s.ops.close()
	return nil
}

// Step advances the virtual clock by d, delivering due messages.
func (s *System) Step(d time.Duration) { s.cluster.Net.RunFor(d) }

// After schedules fn on the virtual clock.
func (s *System) After(d time.Duration, fn func()) { s.cluster.Net.After(d, fn) }

// Now returns the current virtual time.
func (s *System) Now() time.Time { return s.cluster.Net.Now() }

// MessagesCarried returns the total number of messages the network moved.
func (s *System) MessagesCarried() int { return s.cluster.Net.Stats().Total() }

// ErrNoOverlay is returned by the link-chaos methods of a System built
// without WithHeartbeat: only overlay-managed deployments supervise (and
// therefore heal) their links.
var ErrNoOverlay = errors.New("rebeca: overlay not deployed (WithHeartbeat required)")

// CutLink severs the overlay link between two brokers (both directions).
// The link managers notice — instantly on the next send, or via heartbeat
// timeout when idle (advance the virtual clock with Step) — go degraded
// and queue outbound traffic. Requires WithHeartbeat.
func (s *System) CutLink(a, b NodeID) error {
	if s.cluster.Overlays == nil {
		return ErrNoOverlay
	}
	s.cluster.CutLink(a, b)
	return nil
}

// HealLink restores a severed link; the dialer side's backoff probe
// re-establishes it, the sync handshake replays routing installs, and the
// queued backlog flushes. Advance the virtual clock (Step) to let the
// probe fire.
func (s *System) HealLink(a, b NodeID) error {
	if s.cluster.Overlays == nil {
		return ErrNoOverlay
	}
	s.cluster.HealLink(a, b)
	return nil
}

// LinkStates snapshots a broker's overlay link states per peer (nil when
// the overlay is not deployed or the broker is unknown).
func (s *System) LinkStates(b NodeID) map[NodeID]LinkState {
	mgr, ok := s.cluster.Overlays[b]
	if !ok {
		return nil
	}
	return mgr.States()
}

// LinkInfos snapshots a broker's overlay links in full — state, pending
// backlog, spill depth/bytes, drop counters (nil when the overlay is not
// deployed or the broker is unknown).
func (s *System) LinkInfos(b NodeID) []LinkInfo {
	mgr, ok := s.cluster.Overlays[b]
	if !ok {
		return nil
	}
	return mgr.Info()
}

// brokerAddr is the simulated network's address of broker id: the ID
// itself ("" for brokers outside the deployment).
func (s *System) brokerAddr(id NodeID) string {
	if _, ok := s.cluster.Brokers[id]; !ok {
		return ""
	}
	return string(id)
}

// port is the Port of both deployments: one client session
// (internal/client) plus the per-subscription streams its deliveries are
// dispatched to. The deployments differ only in the transport under the
// session and in addr, which maps a broker ID onto a transport address
// ("" for unknown brokers).
type port struct {
	c       *client.Client
	addr    func(NodeID) string
	streams *streamSet
}

var _ Port = (*port)(nil)

func newPort(c *client.Client, addr func(NodeID) string) *port {
	p := &port{c: c, addr: addr, streams: newStreamSet()}
	c.SetDeliveryLog(-1) // the streams are the port's only delivery record
	c.OnDeliver = p.streams.dispatch
	return p
}

func (p *port) ID() NodeID { return p.c.ID() }

func (p *port) Connect(b NodeID) error {
	addr := p.addr(b)
	if addr == "" {
		return fmt.Errorf("%w: %s", ErrUnknownBroker, b)
	}
	return p.c.Connect(addr)
}

func (p *port) Disconnect() error { return p.c.Disconnect() }

func (p *port) Border() NodeID { return p.c.Border() }

func (p *port) Subscribe(f Filter, opts ...SubOption) *Subscription {
	var cfg subConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	s := newSubscription(p.c.NewSubID(cfg.durable), f, cfg, func(s *Subscription) {
		p.streams.remove(s.ID())
		p.c.Unsubscribe(s.ID())
	})
	// The stream exists before the border hears of the subscription, so
	// the first delivery finds it.
	p.streams.add(s)
	p.c.SubscribeAs(s.ID(), f)
	return s
}

func (p *port) SubscribeAt(cs ...Constraint) *Subscription {
	return p.Subscribe(AtLocation(cs...))
}

func (p *port) Publish(attrs map[string]Value) (NotificationID, error) {
	return p.c.Publish(attrs)
}

// PublishBatch splits the batch into MaxBatchFrame-sized frames, checks
// ctx between frames (a publisher stalled by downstream flow control
// aborts at the next frame boundary), and returns the IDs of everything
// already framed alongside any error.
func (p *port) PublishBatch(ctx context.Context, batch []map[string]Value) ([]NotificationID, error) {
	var ids []NotificationID
	for len(batch) > 0 {
		if err := ctx.Err(); err != nil {
			return ids, err
		}
		frame := batch[:min(len(batch), MaxBatchFrame)]
		batch = batch[len(frame):]
		frameIDs, err := p.c.PublishBatch(frame)
		ids = append(ids, frameIDs...)
		if err != nil {
			return ids, err
		}
	}
	return ids, nil
}

func (p *port) Events() <-chan Delivery { return p.streams.catchAll.Events() }

func (p *port) OnNotify(fn func(n Notification)) { p.streams.setNotify(fn) }

func (p *port) Duplicates() int { return p.c.Duplicates() }

func (p *port) FIFOViolations() int { return p.c.FIFOViolations() }

// portSet is a deployment's ports: what its stream gauges read and its
// Close tears down.
type portSet struct {
	mu    sync.Mutex
	ports []*port
}

func (ps *portSet) add(p *port) Port {
	ps.mu.Lock()
	ps.ports = append(ps.ports, p)
	ps.mu.Unlock()
	return p
}

func (ps *portSet) all() []*port {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]*port(nil), ps.ports...)
}

// emitStreams feeds the rebeca_stream_* collectors: every stream of every
// port, catch-all included.
func (ps *portSet) emitStreams(emit func(NodeID, streamStat)) {
	for _, p := range ps.all() {
		for _, s := range p.streams.stats() {
			emit(p.ID(), s)
		}
	}
}
