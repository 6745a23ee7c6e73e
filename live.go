package rebeca

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/client"
	"rebeca/internal/wire"
)

// Live is a middleware deployment over real TCP on the loopback interface:
// one BrokerNode per broker, point-to-point links between overlay neighbors,
// the same session layers (replicator, transparent mobility manager) and
// the same middleware chain the virtual-clock System installs. Its client
// ports are the System's too — the one client session, over a TCP
// transport instead of the simulated network — so client code and tests
// written against the facade run unchanged on real sockets.
//
// For a distributed deployment (one process per broker across machines),
// use cmd/rebeca-broker and cmd/rebeca-client: rebeca-broker is StartBroker
// behind a flag parser, StartBroker runs the very assembly NewLive runs
// once per broker, and rebeca-client is a command loop over the same
// client session.
type Live struct {
	cfg   *config
	ids   []NodeID
	nodes map[NodeID]*BrokerNode
	ops   *opsStack
	ports portSet

	mu     sync.Mutex
	closed bool
}

var _ Deployment = (*Live)(nil)

// NewLive builds and starts a loopback TCP deployment from the options. The
// movement graph, any connected graph, is the overlay: every movement edge
// becomes a live link, the replicator's neighborhood derives from the same
// edges, and the brokers' replicated spanning-tree election picks the
// forwarding tree — the graph itself on a tree, with the redundant links of
// a cyclic graph held as failover paths. New builds the same overlay, so
// the two accept the same graphs. WithRegistry additionally replaces the
// static neighbor dial-out with registry-driven membership: each broker
// registers itself and a supervisor dials/closes links as the registry
// changes.
func NewLive(opts ...Option) (*Live, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	topo := broker.Topology{Edges: cfg.movement.Edges()}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	// Before broker construction: the telemetry stage joins the chain
	// every broker installs, and each registers the endpoint's address.
	ops, err := newOpsStack(cfg)
	if err != nil {
		return nil, err
	}
	l := &Live{
		cfg:   cfg,
		ids:   topo.Nodes(),
		nodes: make(map[NodeID]*BrokerNode),
		ops:   ops,
	}
	adj := topo.Adjacency()
	for _, id := range l.ids {
		// Dial the neighbors already started; the others dial us.
		spec := BrokerSpec{ID: id, Listen: "127.0.0.1:0", Dial: make(map[NodeID]string)}
		for _, p := range adj[id] {
			if n := l.nodes[p]; n != nil {
				spec.Dial[p] = n.Addr()
			}
		}
		n, err := startNode(cfg, l.ops, spec, topo)
		if err != nil {
			_ = l.Close()
			return nil, err
		}
		l.nodes[id] = n
	}
	if l.ops != nil {
		l.ops.registerStreams(l.ports.emitStreams)
		l.ops.start(cfg)
	}
	return l, nil
}

// OpsAddr returns the bound address of the telemetry subsystem's HTTP
// endpoint ("" without WithOps) — e.g. to scrape /metrics or query
// /trace on a WithOps("127.0.0.1:0") deployment.
func (l *Live) OpsAddr() string { return l.ops.addr() }

// NewClient creates a client endpoint, not yet connected: a session over
// a TCP remote client, addressed by broker ID through Addr. On a durable
// deployment the port's publisher identity persists in the store
// ("pub/<client>"), so a port recreated under the same ID — a restarted
// publisher — continues its sequence space and keeps its dedup identity
// at every subscriber.
func (l *Live) NewClient(id NodeID) Port {
	var c *client.Client
	rc := wire.NewRemoteClient(id, func(n Notification, subs []SubID) { c.Deliver(n, subs) })
	rc.Window = l.cfg.window
	c = client.New(id, rc, time.Now)
	if l.cfg.store != nil {
		c.UseDurablePublisher(l.cfg.store)
	}
	return l.ports.add(newPort(c, l.Addr))
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
	for _, p := range l.ports.all() {
		fmt.Fprintf(&sb, "%s:%d:%d:%d:%d;", p.ID(), p.c.Delivered(), p.c.Duplicates(), p.c.Epoch(), len(p.c.Subscriptions()))
	}
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
	return n.node.Info()
}

// Close disconnects all clients and stops all broker nodes, in the order
// BrokerNode.Close stops one: every broker leaves the registry first (any
// observer of the shared registry converges without failure detection),
// then the ops endpoint closes, then the nodes stop — without a
// drain wait: the deployment's own clients are disconnected by then.
func (l *Live) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	for _, n := range l.nodes {
		n.leave()
	}
	l.ops.close()
	for _, p := range l.ports.all() {
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
