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
var ErrNotConnected = errors.New("rebeca: client not connected")

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
// roaming, and delivery inspection. Commands (Connect, Subscribe, Publish,
// …) are driven from one goroutine; delivery streams — the Events channels
// of Subscription handles and of the port itself — are consumed from any
// goroutine. Deliveries arrive between calls (System) or concurrently
// (Live).
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
	// Received returns the retained deliveries in arrival order. The log
	// is opt-in: without WithDeliveryLog it stays empty (per-subscription
	// streams and stats are the primary surface).
	Received() []Delivery
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
	logCap  int
	ops     *opsStack

	mu    sync.Mutex
	ports []*simPort
}

var _ Deployment = (*System)(nil)

// New builds a full in-process deployment from the options: brokers on the
// movement graph's spanning tree, a transparent physical-mobility manager
// and a replicator on every broker, and the configured middleware chain.
func New(opts ...Option) (*System, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.registry != "" {
		return nil, errors.New("rebeca: WithRegistry needs a live deployment (NewLive); under New use WithMeshRouting and declare the mesh as the movement graph")
	}
	repl := sim.ReplicationPreSubscribe
	if cfg.reactive {
		repl = sim.ReplicationReactive
	}
	// Before cluster construction: the telemetry stage joins the chain
	// every broker installs.
	ops := newOpsStack(cfg)
	scfg := sim.ClusterConfig{
		Movement:       cfg.movement,
		Locations:      cfg.locations,
		Context:        cfg.context,
		Strategy:       cfg.strategy,
		Advertisements: cfg.advertisements,
		LinearMatching: cfg.linear,
		Mobility:       sim.MobilityTransparent,
		Replication:    repl,
		SharedBuffers:  cfg.shared,
		BufferFactory:  cfg.bufferFactory(),
		Middleware:     cfg.middleware,
		LinkLatency:    cfg.linkLatency,
		LatencyJitter:  cfg.latencyJitter,
		JitterSeed:     cfg.jitterSeed,
		Store:          cfg.store,
		LinkObserver:   cfg.linkObserver,
		OverlayLogger:  ops.logFor("overlay"),
		BrokerLogger:   ops.logFor("broker"),
	}
	if cfg.overlay {
		set := cfg.overlaySettings()
		scfg.Overlay = &set
	}
	if cfg.spillStore != nil {
		if !cfg.overlay {
			return nil, errors.New("rebeca: WithLinkSpill under New needs the overlay deployed (WithHeartbeat)")
		}
		scfg.LinkSpill = cfg.spillStore
		scfg.LinkSpillBudget = cfg.spillMax
	}
	if cfg.mesh {
		// Mesh routing: the overlay is the movement graph itself (cycles
		// and all) rather than its spanning tree; the brokers' replicated
		// election picks the forwarding tree at runtime.
		scfg.Mesh = true
		scfg.Topology = broker.Topology{Edges: cfg.movement.Edges()}
	}
	cl, err := sim.NewCluster(scfg)
	if err != nil {
		return nil, err
	}
	s := &System{cluster: cl, logCap: cfg.logCap(), ops: ops}
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
	ops.registerStreams(func(emit func(NodeID, streamStat)) {
		s.mu.Lock()
		ports := append([]*simPort(nil), s.ports...)
		s.mu.Unlock()
		for _, p := range ports {
			for _, stat := range p.streams.stats() {
				emit(p.ID(), stat)
			}
		}
	})
	if err := ops.start(cfg, joinIDs(s.Brokers())); err != nil {
		return nil, err
	}
	return s, nil
}

// OpsAddr returns the bound address of the telemetry subsystem's HTTP
// endpoint ("" without WithOps).
func (s *System) OpsAddr() string { return s.ops.addr() }

// NewClient creates a client endpoint.
func (s *System) NewClient(id NodeID) Port {
	p := &simPort{sys: s, c: s.cluster.AddClient(id), streams: newStreamSet()}
	p.c.SetDeliveryLog(s.logCap)
	p.c.OnDeliver = func(d client.Delivery) { p.streams.dispatch(d, nil) }
	s.mu.Lock()
	s.ports = append(s.ports, p)
	s.mu.Unlock()
	return p
}

// Brokers lists the deployment's broker IDs.
func (s *System) Brokers() []NodeID { return s.cluster.Topology.Nodes() }

// Settle runs the virtual clock until no messages remain in flight.
func (s *System) Settle() { s.cluster.Net.Run() }

// Close implements Deployment: the virtual deployment has no transport to
// tear down, but every port's streams are cancelled so range loops over
// their Events channels terminate.
func (s *System) Close() error {
	s.mu.Lock()
	ports := append([]*simPort(nil), s.ports...)
	s.mu.Unlock()
	for _, p := range ports {
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

func (s *System) hasBroker(id NodeID) bool {
	_, ok := s.cluster.Brokers[id]
	return ok
}

// simPort adapts the simulator's client library to the Port interface.
type simPort struct {
	sys     *System
	c       *client.Client
	streams *streamSet
}

var _ Port = (*simPort)(nil)

func (p *simPort) ID() NodeID { return p.c.ID() }

func (p *simPort) Connect(b NodeID) error {
	if !p.sys.hasBroker(b) {
		return fmt.Errorf("%w: %s", ErrUnknownBroker, b)
	}
	p.c.ConnectTo(b)
	return nil
}

func (p *simPort) Disconnect() error {
	p.c.Disconnect()
	return nil
}

func (p *simPort) Border() NodeID { return p.c.Border() }

func (p *simPort) Subscribe(f Filter, opts ...SubOption) *Subscription {
	var cfg subConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	var id SubID
	if cfg.durable != "" {
		// Durable subscriptions carry a stable, name-derived ID so a
		// client recreated after a restart reattaches to the same
		// broker-side queue.
		id = p.c.SubscribeAs(durableSubID(p.ID(), cfg.durable), f)
	} else {
		id = p.c.Subscribe(f)
	}
	s := newSubscription(id, f, cfg, func(s *Subscription) {
		p.streams.remove(s.ID())
		p.c.Unsubscribe(s.ID())
	})
	p.streams.add(s)
	return s
}

func (p *simPort) SubscribeAt(cs ...Constraint) *Subscription {
	return p.Subscribe(AtLocation(cs...))
}

func (p *simPort) Publish(attrs map[string]Value) (NotificationID, error) {
	id, ok := p.c.Publish(attrs)
	if !ok {
		return NotificationID{}, ErrNotConnected
	}
	return id, nil
}

func (p *simPort) PublishBatch(ctx context.Context, batch []map[string]Value) ([]NotificationID, error) {
	return publishFrames(ctx, batch, func(frame []map[string]Value) ([]NotificationID, error) {
		ids, ok := p.c.PublishBatch(frame)
		if !ok {
			return nil, ErrNotConnected
		}
		return ids, nil
	})
}

// publishFrames is the shared batch-framing loop behind both Port
// implementations: it splits the batch into MaxBatchFrame-sized frames,
// checks ctx between frames (a publisher stalled by downstream flow
// control aborts at the next frame boundary), and accumulates the
// assigned IDs — returning the IDs of everything already framed alongside
// any error.
func publishFrames(ctx context.Context, batch []map[string]Value,
	send func(frame []map[string]Value) ([]NotificationID, error)) ([]NotificationID, error) {
	var ids []NotificationID
	for len(batch) > 0 {
		if err := ctx.Err(); err != nil {
			return ids, err
		}
		frame := batch
		if len(frame) > MaxBatchFrame {
			frame = frame[:MaxBatchFrame]
		}
		batch = batch[len(frame):]
		frameIDs, err := send(frame)
		ids = append(ids, frameIDs...)
		if err != nil {
			return ids, err
		}
	}
	return ids, nil
}

func (p *simPort) Events() <-chan Delivery { return p.streams.catchAll.Events() }

func (p *simPort) OnNotify(fn func(n Notification)) { p.streams.setNotify(fn) }

func (p *simPort) Received() []Delivery { return p.c.Received() }

func (p *simPort) Duplicates() int { return p.c.Duplicates() }

func (p *simPort) FIFOViolations() int { return p.c.FIFOViolations() }
