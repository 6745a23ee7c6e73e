package rebeca

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/client"
	"rebeca/internal/message"
	"rebeca/internal/mobility"
	"rebeca/internal/proto"
	"rebeca/internal/wire"
)

// Live is a middleware deployment over real TCP on the loopback interface:
// one BrokerNode per broker, point-to-point links between overlay neighbors,
// the same session layers (replicator, transparent mobility manager) and
// the same middleware chain the virtual-clock System installs. It
// implements Deployment, so client code and tests written against the
// facade run unchanged on real sockets.
//
// For a distributed deployment (one process per broker across machines),
// use cmd/rebeca-broker and cmd/rebeca-client: rebeca-broker is StartBroker
// behind a flag parser, and StartBroker runs the very assembly NewLive
// runs once per broker.
type Live struct {
	cfg   *config
	ids   []NodeID
	nodes map[NodeID]*BrokerNode
	ops   *opsStack

	mu     sync.Mutex
	ports  []*livePort
	closed bool
}

var _ Deployment = (*Live)(nil)

// NewLive builds and starts a loopback TCP deployment from the options.
// By default the movement graph must be a tree: the replicator's
// neighborhood and the broker overlay both derive from its edges, and the
// spanning tree of a tree is the tree itself, so tree graphs behave
// identically under New and NewLive. WithMeshRouting lifts the
// restriction — every movement edge becomes a live link and the brokers'
// replicated spanning-tree election picks the forwarding tree, with the
// redundant links held as failover paths. WithRegistry additionally
// replaces the static neighbor dial-out with registry-driven membership:
// each broker registers itself and a supervisor dials/closes links as the
// registry changes.
func NewLive(opts ...Option) (*Live, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	nodesIDs := cfg.movement.Nodes()
	var topo broker.Topology
	if cfg.mesh {
		topo = broker.Topology{Edges: cfg.movement.Edges()}
		if err := topo.ValidateConnected(); err != nil {
			return nil, err
		}
	} else {
		edgeCount := 0
		for _, id := range nodesIDs {
			edgeCount += cfg.movement.Degree(id)
		}
		edgeCount /= 2
		if !cfg.movement.Connected() || edgeCount != len(nodesIDs)-1 {
			return nil, fmt.Errorf("rebeca: NewLive needs a tree movement graph (%d nodes, %d edges); opt into WithMeshRouting to run a cyclic mesh",
				len(nodesIDs), edgeCount)
		}
		topo = broker.Topology{Edges: cfg.movement.SpanningTree()}
		if err := topo.Validate(); err != nil {
			return nil, err
		}
	}
	l := &Live{
		cfg:   cfg,
		ids:   topo.Nodes(),
		nodes: make(map[NodeID]*BrokerNode),
		// Before broker construction: the telemetry stage joins the chain
		// every broker installs.
		ops: newOpsStack(cfg),
	}
	adj := topo.Adjacency()
	sessions := cfg.sessions(mobility.ModeTransparent, true)
	for _, id := range l.ids {
		// Dial the neighbors already started; the others dial us.
		spec := BrokerSpec{ID: id, Listen: "127.0.0.1:0", Dial: make(map[NodeID]string)}
		for _, p := range adj[id] {
			if n := l.nodes[p]; n != nil {
				spec.Dial[p] = n.Addr()
			}
		}
		n, err := startNode(cfg, l.ops, spec, topo, sessions)
		if err != nil {
			_ = l.Close()
			return nil, err
		}
		l.nodes[id] = n
	}
	if l.ops != nil {
		l.ops.registerStreams(func(emit func(NodeID, streamStat)) {
			l.mu.Lock()
			ports := append([]*livePort(nil), l.ports...)
			l.mu.Unlock()
			for _, p := range ports {
				for _, s := range p.streams.stats() {
					emit(p.id, s)
				}
			}
		})
		if err := l.ops.start(cfg, joinIDs(l.ids)); err != nil {
			_ = l.Close()
			return nil, err
		}
	}
	return l, nil
}

// OpsAddr returns the bound address of the telemetry subsystem's HTTP
// endpoint ("" without WithOps) — e.g. to scrape /metrics or query
// /trace on a WithOps("127.0.0.1:0") deployment.
func (l *Live) OpsAddr() string { return l.ops.addr() }

// NewClient creates a client endpoint, not yet connected. On a durable
// deployment the port's publisher identity persists in the store
// ("pub/<client>"), so a port recreated under the same ID — a restarted
// publisher — continues its sequence space and keeps its dedup identity
// at every subscriber.
func (l *Live) NewClient(id NodeID) Port {
	p := &livePort{
		l:       l,
		id:      id,
		tally:   client.NewTally(),
		streams: newStreamSet(),
	}
	if l.cfg.store != nil {
		p.pubseq = client.NewPubSequencer(l.cfg.store, id)
	}
	p.tally.Log.SetCap(l.cfg.logCap())
	p.rc = wire.NewRemoteClient(id, p.deliver)
	p.rc.Window = l.cfg.window
	l.mu.Lock()
	l.ports = append(l.ports, p)
	l.mu.Unlock()
	return p
}

// Brokers lists the deployment's broker IDs.
func (l *Live) Brokers() []NodeID { return append([]NodeID(nil), l.ids...) }

// Addr returns the TCP address a broker listens on ("" for unknown IDs) —
// for connecting external clients (cmd/rebeca-client) to an in-process
// deployment.
func (l *Live) Addr(b NodeID) string {
	if n := l.nodes[b]; n != nil {
		return n.Addr()
	}
	return ""
}

// Settle waits until the deployment looks quiescent: no broker stats,
// routing-table sizes or client delivery counts have changed for the
// configured quiet window (WithSettleWindow). Unlike System.Settle this is
// a heuristic — real sockets have no global event queue to drain — but on
// loopback the quiet window dwarfs link latency by orders of magnitude.
func (l *Live) Settle() {
	deadline := time.Now().Add(l.cfg.settleMax)
	quietSince := time.Now()
	prev := l.fingerprint()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		cur := l.fingerprint()
		if cur != prev {
			prev = cur
			quietSince = time.Now()
			continue
		}
		if time.Since(quietSince) >= l.cfg.settleQuiet {
			return
		}
	}
}

// fingerprint summarizes all observable activity; Settle polls it for
// stability.
func (l *Live) fingerprint() string {
	var sb strings.Builder
	for _, id := range l.ids {
		l.nodes[id].node.Inspect(func(b *broker.Broker) {
			fmt.Fprintf(&sb, "%s:%+v:%d;", id, b.Stats(), b.Router().Table().Len())
		})
	}
	l.mu.Lock()
	for _, p := range l.ports {
		fmt.Fprintf(&sb, "%s:%d;", p.id, p.activity())
	}
	l.mu.Unlock()
	return sb.String()
}

// CutLink severs the overlay link between two brokers: the TCP
// connection is killed and re-establishment is refused until HealLink.
// Both link managers go degraded and queue outbound traffic in their
// bounded pending buffers — the deterministic "kill + keep down" half of
// a live link-flap scenario.
func (l *Live) CutLink(a, b NodeID) error {
	na, nb := l.nodes[a], l.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("%w: %s-%s", ErrUnknownBroker, a, b)
	}
	na.node.BlockPeer(b)
	nb.node.BlockPeer(a)
	return nil
}

// HealLink lifts a CutLink; the dialing side's backoff probe reconnects,
// the sync handshake replays routing installs, and the queued backlog
// flushes.
func (l *Live) HealLink(a, b NodeID) error {
	na, nb := l.nodes[a], l.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("%w: %s-%s", ErrUnknownBroker, a, b)
	}
	na.node.UnblockPeer(b)
	nb.node.UnblockPeer(a)
	return nil
}

// LinkStates snapshots a broker's overlay link states per peer (nil for
// unknown brokers).
func (l *Live) LinkStates(b NodeID) map[NodeID]LinkState {
	n := l.nodes[b]
	if n == nil {
		return nil
	}
	return n.node.LinkStates()
}

// LinkInfos snapshots a broker's overlay links in full — state, pending
// backlog, spill depth/bytes, drop counters (nil for unknown brokers).
func (l *Live) LinkInfos(b NodeID) []LinkInfo {
	n := l.nodes[b]
	if n == nil {
		return nil
	}
	return n.node.LinkInfo()
}

// Close disconnects all clients and stops all broker nodes, in the order
// BrokerNode.Close stops one: every broker leaves the registry first (any
// observer of the shared registry converges without failure detection),
// then the ops endpoint and pusher close, then the nodes stop — without a
// drain wait: the deployment's own clients are disconnected by then.
func (l *Live) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	ports := append([]*livePort(nil), l.ports...)
	l.mu.Unlock()
	for _, n := range l.nodes {
		n.leave()
	}
	l.ops.close()
	for _, p := range ports {
		_ = p.Disconnect()
		// Close every stream so range loops over Events() terminate.
		p.streams.closeAll()
	}
	var first error
	for i := len(l.ids) - 1; i >= 0; i-- {
		if n := l.nodes[l.ids[i]]; n != nil {
			if err := n.stop(0); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// livePort adapts a TCP remote client to the Port interface, adding the
// client-library bookkeeping the simulator's client does in-process:
// roaming profile, connect epochs, dedup by notification ID, and the
// per-subscription stream dispatch.
type livePort struct {
	l  *Live
	id NodeID
	rc *wire.RemoteClient

	mu         sync.Mutex
	connected  bool
	border     NodeID
	prev       NodeID
	epoch      uint64
	profile    []proto.Subscription
	nextSub    int
	pubSeq     uint64
	pubseq     *client.PubSequencer // durable identity (nil = in-memory)
	tally      *client.Tally
	stop       chan struct{} // closed on disconnect; aborts Block pushes
	stopClosed bool

	streams *streamSet
}

var _ Port = (*livePort)(nil)

// deliver is the RemoteClient's delivery callback (pump goroutine). The
// stream pushes run outside the port lock: a Block-policy stream may hold
// the pump — and with it the broker's credit window — for as long as the
// consumer lags, without wedging the port's accessors.
func (p *livePort) deliver(n Notification, subs []SubID) {
	d := Delivery{Note: n, At: time.Now(), Subs: subs}
	p.mu.Lock()
	if !p.tally.Record(d) {
		p.mu.Unlock()
		return
	}
	abort := p.stop
	p.mu.Unlock()
	p.streams.dispatch(d, abort)
}

// activity feeds Live's settle fingerprint.
func (p *livePort) activity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.tally.Log.Total()) + p.tally.Duplicates() + int(p.epoch) + len(p.profile)
}

func (p *livePort) ID() NodeID { return p.id }

func (p *livePort) Connect(b NodeID) error {
	addr := p.l.Addr(b)
	if addr == "" {
		return fmt.Errorf("%w: %s", ErrUnknownBroker, b)
	}
	p.mu.Lock()
	if p.connected {
		// Drop the old link first; if the dial below fails the port is
		// left cleanly disconnected, not pointing at a stale border. The
		// old epoch's Block pushes are aborted so the delivery pump can
		// drain before the link teardown waits on it.
		p.connected = false
		p.border = ""
		p.closeStopLocked()
		p.mu.Unlock()
		_ = p.rc.Disconnect()
		p.mu.Lock()
	}
	p.epoch++
	prev := p.prev
	profile := append([]proto.Subscription(nil), p.profile...)
	epoch := p.epoch
	// Arm the abort channel before dialing: the border may replay ghost
	// buffers the instant the link is up.
	p.stop = make(chan struct{})
	p.stopClosed = false
	p.mu.Unlock()
	if err := p.rc.Connect(addr, prev, profile, epoch); err != nil {
		p.mu.Lock()
		p.closeStopLocked()
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	p.connected = true
	p.border = b
	p.prev = b
	p.mu.Unlock()
	return nil
}

// closeStopLocked aborts the current epoch's Block pushes. The closed
// channel stays in p.stop (Connect replaces it): deliveries already in
// the pump when the link drops must still find a firing abort channel,
// or a Block push could wedge the pump and deadlock the link teardown.
// Callers hold p.mu.
func (p *livePort) closeStopLocked() {
	if p.stop != nil && !p.stopClosed {
		close(p.stop)
		p.stopClosed = true
	}
}

func (p *livePort) Disconnect() error {
	p.mu.Lock()
	if !p.connected {
		p.mu.Unlock()
		return nil
	}
	p.connected = false
	p.border = ""
	// Abort any Block push in flight so the delivery pump can drain and
	// the link teardown below does not wait on a lagging consumer.
	p.closeStopLocked()
	p.mu.Unlock()
	return p.rc.Disconnect()
}

func (p *livePort) Border() NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.connected {
		return ""
	}
	return p.border
}

func (p *livePort) Subscribe(f Filter, opts ...SubOption) *Subscription {
	var cfg subConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	p.mu.Lock()
	var id SubID
	if cfg.durable != "" {
		// Stable, name-derived identity: a port recreated after a restart
		// mints the same ID and reattaches to its broker-side queue.
		id = durableSubID(p.id, cfg.durable)
	} else {
		p.nextSub++
		id = SubID(fmt.Sprintf("%s/s%d", p.id, p.nextSub))
	}
	sub := proto.Subscription{ID: id, Filter: f}
	replaced := false
	for i, ps := range p.profile {
		if ps.ID == id {
			p.profile[i] = sub
			replaced = true
			break
		}
	}
	if !replaced {
		p.profile = append(p.profile, sub)
	}
	connected := p.connected
	p.mu.Unlock()
	s := newSubscription(sub.ID, f, cfg, p.unsubscribe)
	p.streams.add(s)
	if connected {
		_ = p.rc.Send(proto.Message{Kind: proto.KSubscribe, Client: p.id, Sub: &sub})
	}
	return s
}

func (p *livePort) SubscribeAt(cs ...Constraint) *Subscription {
	return p.Subscribe(AtLocation(cs...))
}

// unsubscribe is the Subscription.Cancel callback: drop the subscription
// from the roaming profile and, while connected, withdraw it at the
// border.
func (p *livePort) unsubscribe(s *Subscription) {
	p.streams.remove(s.ID())
	p.mu.Lock()
	var sub *proto.Subscription
	for i, ps := range p.profile {
		if ps.ID == s.ID() {
			ps := ps
			sub = &ps
			p.profile = append(p.profile[:i], p.profile[i+1:]...)
			break
		}
	}
	connected := p.connected
	p.mu.Unlock()
	if sub != nil && connected {
		_ = p.rc.Send(proto.Message{Kind: proto.KUnsubscribe, Client: p.id, Sub: sub})
	}
}

// nextSeqLocked assigns the next publish sequence number (durable when
// the deployment has a store). Callers hold p.mu.
func (p *livePort) nextSeqLocked() uint64 {
	if p.pubseq != nil {
		return p.pubseq.Next()
	}
	p.pubSeq++
	return p.pubSeq
}

func (p *livePort) Publish(attrs map[string]Value) (NotificationID, error) {
	p.mu.Lock()
	if !p.connected {
		p.mu.Unlock()
		return NotificationID{}, ErrNotConnected
	}
	n := message.NewNotification(attrs)
	n.ID = NotificationID{Publisher: p.id, Seq: p.nextSeqLocked()}
	n.Published = time.Now()
	p.mu.Unlock()
	if err := p.rc.Send(proto.Message{Kind: proto.KPublish, Client: p.id, Note: &n}); err != nil {
		return NotificationID{}, err
	}
	return n.ID, nil
}

func (p *livePort) PublishBatch(ctx context.Context, batch []map[string]Value) ([]NotificationID, error) {
	return publishFrames(ctx, batch, func(frame []map[string]Value) ([]NotificationID, error) {
		p.mu.Lock()
		if !p.connected {
			p.mu.Unlock()
			return nil, ErrNotConnected
		}
		notes := make([]message.Notification, len(frame))
		frameIDs := make([]NotificationID, len(frame))
		now := time.Now()
		for i, attrs := range frame {
			n := message.NewNotification(attrs)
			n.ID = NotificationID{Publisher: p.id, Seq: p.nextSeqLocked()}
			n.Published = now
			notes[i] = n
			frameIDs[i] = n.ID
		}
		p.mu.Unlock()
		if err := p.rc.Send(proto.Message{Kind: proto.KPublishBatch, Client: p.id, Notes: notes}); err != nil {
			return nil, err
		}
		return frameIDs, nil
	})
}

func (p *livePort) Events() <-chan Delivery { return p.streams.catchAll.Events() }

func (p *livePort) OnNotify(fn func(n Notification)) { p.streams.setNotify(fn) }

func (p *livePort) Received() []Delivery {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tally.Log.Snapshot()
}

func (p *livePort) Duplicates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tally.Duplicates()
}

func (p *livePort) FIFOViolations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tally.FIFOViolations()
}
