// Package wire runs the middleware over real TCP links: the same broker
// state machines the simulator drives, fed from length-prefixed binary
// frames (internal/codec). It provides the live deployment mode used by
// cmd/rebeca-broker — one process per broker, point-to-point TCP
// connections between neighbors (§2), and RemoteClient, the TCP transport
// under a client session (internal/client).
//
// TCP gives the FIFO per-link guarantee the algorithms assume; a per-node
// inbox goroutine serializes HandleMessage calls, preserving the atomic
// routing-decision requirement of §2.
//
// Every link buffers its writes through a bufio.Writer that is flushed by
// a per-conn flusher goroutine when the writer goes idle — never inline
// per message — so back-to-back publishes coalesce into one syscall. The
// identification handshake opens with codec.Magic and a protocol version
// byte; both sides speak the version minimum. The gob fallback of the
// pre-binary releases is gone: a legacy peer's dial is refused with an
// error naming the mismatch instead of silently hanging.
//
// Peer links can be declared statically (NodeConfig.Peers) or managed at
// runtime (AddLink/RemoveLink) — the discovery subsystem's membership
// supervisor drives the latter, and its snapshots (MembersChanged) declare
// the graph the hosted broker elects its spanning tree over.
//
// Broker↔broker links are owned by the node's overlay manager
// (internal/overlay): dials retry with backoff instead of failing Start,
// every (re-)established link runs the sync handshake that replays routing
// installs before carrying traffic, established links exchange heartbeats,
// and messages bound for a down link queue in a bounded buffer until it
// heals — so broker start order does not matter and the topology self-heals
// after restarts and link flaps.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/codec"
	"rebeca/internal/discovery"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// inboxMsg pairs a received message with its link. gen is the overlay
// link generation for peer-broker links (0 on client links).
type inboxMsg struct {
	from message.NodeID
	m    proto.Message
	gen  uint64
}

// flowState is the broker-side half of the credit-based delivery flow
// control on a client link: the client's KConnect announces a delivery
// window, every note a KDeliver carries consumes one credit, and the
// client grants credits back (KCredit) as its application consumes the
// notes. At zero credits the sender blocks — on a live node that is the
// broker's event loop, so a stalled consumer exerts backpressure through
// the overlay's TCP links all the way to the publisher.
type flowState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	enabled bool
	credits int
	closed  bool
}

func newFlowState() *flowState {
	f := &flowState{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// enable arms the window. Called from the link's read pump when a KConnect
// announces a credit window.
func (f *flowState) enable(window int) {
	f.mu.Lock()
	f.enabled = true
	f.credits = window
	f.mu.Unlock()
	f.cond.Broadcast()
}

// grant adds credits (KCredit from the client).
func (f *flowState) grant(n int) {
	f.mu.Lock()
	f.credits += n
	f.mu.Unlock()
	f.cond.Broadcast()
}

// take takes up to n delivery credits, blocking only while the window is
// empty, and returns how many it took: n on a link without a window, 0
// when the link closed instead.
func (f *flowState) take(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.enabled && f.credits <= 0 && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		return 0
	}
	if f.enabled {
		n = min(n, f.credits)
		f.credits -= n
	}
	return n
}

// close releases all waiters (link teardown).
func (f *flowState) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Conn is one established, identified link. All writes go through bw; a
// dedicated flusher goroutine flushes it when the writer goes idle (see
// Send), so bursts of messages coalesce into few syscalls. dec is the
// connection's single decoder: it buffers reads, so the hello handshake
// and the message pump must share one — a second decoder would start
// mid-stream on whatever the first one read ahead.
type Conn struct {
	peer message.NodeID
	c    net.Conn
	ver  byte
	bw   *bufio.Writer
	enc  *codec.Encoder
	dec  *codec.Decoder
	mu   sync.Mutex
	fc   *flowState

	flushReq  chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// newConn assembles a post-handshake link and starts its flusher. ver is
// the negotiated binary protocol version.
func newConn(peer message.NodeID, c net.Conn, ver byte, bw *bufio.Writer, enc *codec.Encoder, dec *codec.Decoder) *Conn {
	conn := &Conn{
		peer: peer, c: c, ver: ver, bw: bw, enc: enc, dec: dec,
		fc:       newFlowState(),
		flushReq: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go conn.flushLoop()
	return conn
}

// Peer returns the remote node's announced ID.
func (c *Conn) Peer() message.NodeID { return c.peer }

// ProtocolVersion returns the negotiated binary protocol version,
// min(ours, peer's) — the version a future multi-version encoder must
// emit on this link.
func (c *Conn) ProtocolVersion() byte { return c.ver }

// Send encodes one message into the link's write buffer and wakes the
// flusher. Safe for concurrent use. The flusher only runs when it can
// take the send lock — while senders keep arriving their frames pile into
// the buffer, and one Flush (one syscall) carries the whole burst.
//
// An encode failure tears the link down. Callers largely ignore Send
// errors (a lost volatile message is a down link's normal cost), but a
// message the codec refuses — an over-MaxFrame frame, say a gigantic
// KSyncInstall replay — must not leave the link looking healthy while
// its peer waits forever for the dropped frame: closing the conn makes
// the read pump report LinkDown, so the failure is observed and
// supervised instead of becoming a silent routing blackhole.
func (c *Conn) Send(m proto.Message) error {
	c.mu.Lock()
	err := c.enc.Encode(m)
	c.mu.Unlock()
	if err != nil {
		_ = c.Close()
		return err
	}
	select {
	case c.flushReq <- struct{}{}:
	default: // a flush is already pending; it will cover this frame too
	}
	return nil
}

// flushLoop drains flush requests. The signal is sent after the frame is
// in the buffer, so by the time the loop takes the lock every signalled
// frame is flushed — there is no lost-wakeup window.
func (c *Conn) flushLoop() {
	for {
		select {
		case <-c.flushReq:
			c.mu.Lock()
			err := c.bw.Flush()
			c.mu.Unlock()
			if err != nil {
				return // socket broken; the read pump reports the failure
			}
		case <-c.done:
			return
		}
	}
}

// Close tears the link down: it releases any sender blocked on credits,
// flushes buffered frames (bounded by a write deadline, so a wedged peer
// cannot hang teardown) and closes the socket.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.fc.close()
		_ = c.c.SetWriteDeadline(time.Now().Add(time.Second))
		c.mu.Lock()
		_ = c.bw.Flush()
		c.mu.Unlock()
	})
	return c.c.Close()
}

// NodeConfig assembles a live broker node.
type NodeConfig struct {
	// ID names this broker.
	ID message.NodeID
	// Listen is the TCP address to accept links on (e.g. ":7471").
	Listen string
	// Peers maps neighbor broker IDs to their dial addresses. Only one
	// side of each overlay edge needs to dial; the other accepts. Static
	// configuration — nodes driven by a discovery registry leave it empty
	// and manage peers at runtime via AddLink/RemoveLink.
	Peers map[message.NodeID]string
	// NextHop is the unicast routing table (destination -> neighbor).
	NextHop map[message.NodeID]message.NodeID
	// Middleware is appended to the broker's extension chain at Start,
	// after any stages attached via Broker() before it. Stages shared
	// between several live nodes must be safe for concurrent use (one event
	// loop each).
	Middleware []broker.Middleware
	// Overlay tunes the broker-link supervision (heartbeat interval and
	// timeout, redial backoff, pending-queue bound); zero fields take the
	// overlay package's defaults.
	Overlay overlay.Settings
	// Spill, when non-nil, backs every overlay link's pending queue with
	// persistent storage: overflow beyond the pending cap spills to a
	// per-link store queue and replays in order on re-establishment
	// instead of being dropped. See overlay.Config.Spill.
	Spill store.Store
	// SpillBudget bounds each link's spilled bytes (default
	// overlay.DefaultSpillBudget). Only meaningful with Spill.
	SpillBudget int64
	// FrameObserver, when non-nil, is handed the size of every frame a
	// link's encoder writes (length prefix included).
	FrameObserver func(bytes int)
	// Logger, when non-nil, receives structured wire-layer events —
	// today, inbound links refused at the handshake (a legacy peer or
	// junk on the listen port).
	Logger *slog.Logger
	// OverlayLogger, when non-nil, is handed to the overlay manager for
	// structured link-transition logs (a separate gate from Logger so
	// each subsystem's verbosity tunes independently).
	OverlayLogger *slog.Logger
	// BrokerLogger, when non-nil, is attached to the hosted broker core
	// (spanning-tree recomputations, flood fallbacks).
	BrokerLogger *slog.Logger
}

// Node is a live broker process host.
type Node struct {
	cfg NodeConfig
	b   *broker.Broker
	ln  net.Listener
	ov  *overlay.Manager

	mu      sync.Mutex
	conns   map[message.NodeID]*Conn
	blocked map[message.NodeID]bool // link-chaos hook: refuse these peers
	// peers maps current overlay neighbors to their dial addresses (""
	// for purely passive links). Seeded from cfg.Peers, mutated at
	// runtime by AddLink/RemoveLink; guarded by mu.
	peers map[message.NodeID]string

	inbox chan inboxMsg
	tasks chan func()
	done  chan struct{}
	wg    sync.WaitGroup

	// linkQ holds link transitions for the event loop, in order; linkWake
	// (one slot) tells the loop there is something to drain. Unbounded, so
	// no transition is lost however long the loop is busy.
	linkMu   sync.Mutex
	linkQ    []overlay.Event
	linkWake chan struct{}
}

// NewNode creates a node and its broker (not yet serving).
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		cfg:      cfg,
		conns:    make(map[message.NodeID]*Conn),
		blocked:  make(map[message.NodeID]bool),
		peers:    make(map[message.NodeID]string, len(cfg.Peers)),
		inbox:    make(chan inboxMsg, 1024),
		tasks:    make(chan func()),
		done:     make(chan struct{}),
		linkWake: make(chan struct{}, 1),
	}
	peers := make([]message.NodeID, 0, len(cfg.Peers))
	for p, addr := range cfg.Peers {
		peers = append(peers, p)
		n.peers[p] = addr
	}
	n.b = broker.New(broker.Config{
		ID:      cfg.ID,
		Peers:   peers,
		Send:    n.send,
		NextHop: cfg.NextHop,
	})
	n.ov = n.newOverlay(time.Now)
	// Links entering the elected tree get a routing resync; on a cyclic
	// graph links leaving it get their pending backlog re-flooded.
	n.b.RepairTreeThrough(n.ov)
	if cfg.BrokerLogger != nil {
		n.b.SetLogger(cfg.BrokerLogger)
	}
	return n
}

// newOverlay builds the manager that supervises the node's broker links,
// on the given clock.
func (n *Node) newOverlay(now func() time.Time) *overlay.Manager {
	return overlay.New(overlay.Config{
		Self:        n.cfg.ID,
		Settings:    n.cfg.Overlay,
		Now:         now,
		Spill:       n.cfg.Spill,
		SpillBudget: n.cfg.SpillBudget,
		Transmit:    n.transmitPeer,
		Dial:        n.dialPeer,
		CloseLink: func(peer message.NodeID) {
			n.mu.Lock()
			conn := n.conns[peer]
			n.mu.Unlock()
			if conn != nil {
				_ = conn.Close()
			}
		},
		Schedule: func(d time.Duration, fn func()) func() {
			t := time.AfterFunc(d, fn)
			return func() { t.Stop() }
		},
		// SyncState/ApplySync run inside HandleControl, which the node
		// only invokes from its event loop — direct broker access is safe.
		SyncState: n.b.SyncInstalls,
		ApplySync: n.b.ApplySyncInstalls,
		Observer:  n.observeLink,
		Logger:    n.cfg.OverlayLogger,
	})
}

// observeLink hands a link transition to the event loop, which passes it
// to the broker chain's LinkObserver stages. Transitions can originate on
// that very loop, so the hand-off never blocks; the queue keeps every one,
// in order, however long the loop is busy (the mesh election's only input
// is this stream, so a lost transition would leave its tree wrong).
func (n *Node) observeLink(ev overlay.Event) {
	n.linkMu.Lock()
	n.linkQ = append(n.linkQ, ev)
	n.linkMu.Unlock()
	select {
	case n.linkWake <- struct{}{}:
	default: // a wake is pending; its drain takes this event too
	}
}

// Broker exposes the hosted broker so callers can attach the session
// layers and middleware (session.Attach) before Start.
func (n *Node) Broker() *broker.Broker { return n.b }

// isPeer reports whether id is a current overlay neighbor.
func (n *Node) isPeer(id message.NodeID) bool {
	n.mu.Lock()
	_, ok := n.peers[id]
	n.mu.Unlock()
	return ok
}

// AddLink adds an overlay neighbor at runtime: the link is handed to the
// overlay manager, which dials (dial true; addr is the peer's listen
// address) or awaits the peer's dial. Safe from any goroutine — the
// discovery membership supervisor, whose Host a Node is, calls this from
// its watch path.
func (n *Node) AddLink(peer message.NodeID, addr string, dial bool) {
	if peer == "" || peer == n.cfg.ID {
		return
	}
	n.mu.Lock()
	n.peers[peer] = addr
	n.mu.Unlock()
	n.ov.AddPeer(peer, dial && addr != "")
}

// RemoveLink drops an overlay neighbor at runtime: supervision stops, the
// link closes, pending traffic for it is discarded (a departed broker's
// backlog has nowhere to go — mesh re-election re-routes what matters).
func (n *Node) RemoveLink(peer message.NodeID) {
	n.ov.RemovePeer(peer)
	n.mu.Lock()
	delete(n.peers, peer)
	conn := n.conns[peer]
	delete(n.conns, peer)
	n.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// MembersChanged declares a discovery membership snapshot (brokers and
// declared edges) as the graph the hosted broker elects its spanning tree
// over, serialized on the event loop.
func (n *Node) MembersChanged(entries []discovery.Entry) {
	members, edges := discovery.Graph(entries)
	n.Inspect(func(b *broker.Broker) { b.SetMeshTopology(members, edges) })
}

var _ discovery.Host = (*Node)(nil)

// Start listens, runs the event loop, and hands every overlay link to the
// node's overlay manager: active sides begin dialing (failed dials retry
// with jittered backoff — a peer that is not up yet is not an error),
// passive sides await the peer's dial. Start only fails if the listen
// address is unavailable.
func (n *Node) Start() error {
	n.b.UseMiddleware(n.cfg.Middleware...)
	ln, err := net.Listen("tcp", n.cfg.Listen)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", n.cfg.Listen, err)
	}
	n.ln = ln
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
	for peer, addr := range n.cfg.Peers {
		n.ov.AddPeer(peer, addr != "")
	}
	return nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close stops the node and all links.
func (n *Node) Close() error {
	select {
	case <-n.done:
		return nil
	default:
	}
	close(n.done)
	n.ov.Close() // stop redial/heartbeat timers before dropping links
	if n.ln != nil {
		_ = n.ln.Close()
	}
	n.mu.Lock()
	for _, c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			conn, err := acceptLink(n.cfg.ID, c)
			if err != nil {
				if n.cfg.Logger != nil {
					n.cfg.Logger.Warn("inbound link refused at handshake",
						"self", n.cfg.ID, "remote", c.RemoteAddr().String(), "err", err)
				}
				_ = c.Close()
				return
			}
			if n.isPeer(conn.peer) {
				n.registerPeer(conn)
				return
			}
			n.register(conn)
		}()
	}
}

// register adds a client link and starts its read pump. A replaced conn
// (client reconnecting under the same ID) is closed, not just dropped:
// every Conn owns a flusher goroutine that only Close releases. A link
// whose handshake finishes after Close began is closed here: the closed
// check and the pump's wg.Add share n.mu with Close's sweep of the conns,
// so Close either closes the conn and waits for its pump or never sees it.
func (n *Node) register(conn *Conn) {
	conn.enc.OnFrame(n.cfg.FrameObserver) // before the conn carries traffic
	n.mu.Lock()
	if n.isClosed() {
		n.mu.Unlock()
		_ = conn.Close()
		return
	}
	if old := n.conns[conn.peer]; old != nil && old != conn {
		_ = old.Close()
	}
	n.conns[conn.peer] = conn
	n.wg.Add(1)
	n.mu.Unlock()
	go n.readLoop(conn)
}

// registerPeer installs a broker-peer link (dialed or accepted): it
// replaces any previous conn to that peer, reports the link up to the
// overlay manager — which starts the sync handshake — and starts the
// gen-tagged read pump. Blocked peers (link-chaos hook) are refused.
func (n *Node) registerPeer(conn *Conn) {
	conn.enc.OnFrame(n.cfg.FrameObserver) // before the conn carries traffic
	n.mu.Lock()
	if n.blocked[conn.peer] || n.isClosed() {
		n.mu.Unlock()
		_ = conn.Close()
		// A refused *dialed* conn must still report its attempt as
		// failed, or the manager — whose retry timer was consumed to
		// fire this dial — never schedules another and the link stays
		// degraded past HealLink. No-op for accepted conns (passive
		// links) and closed managers.
		n.ov.DialFailed(conn.peer)
		return
	}
	if old := n.conns[conn.peer]; old != nil && old != conn {
		_ = old.Close()
	}
	n.conns[conn.peer] = conn
	n.wg.Add(1) // under n.mu, as in register
	n.mu.Unlock()
	gen, ok := n.ov.LinkUp(conn.peer)
	if !ok {
		_ = conn.Close()
		n.wg.Done()
		return
	}
	go n.readPeerLoop(conn, gen)
}

// dialPeer is the overlay manager's Dial callback: one asynchronous
// attempt, reported back as LinkUp (via registerPeer) or DialFailed.
func (n *Node) dialPeer(peer message.NodeID) {
	go func() {
		n.mu.Lock()
		addr := n.peers[peer]
		refused := n.blocked[peer]
		n.mu.Unlock()
		if refused || n.isClosed() || addr == "" {
			n.ov.DialFailed(peer)
			return
		}
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			n.ov.DialFailed(peer)
			return
		}
		conn, err := handshakeLink(n.cfg.ID, c)
		if err != nil {
			n.ov.DialFailed(peer) // handshakeLink closed the socket
			return
		}
		if conn.peer != peer {
			_ = conn.Close() // full Close: the conn's flusher is running
			n.ov.DialFailed(peer)
			return
		}
		n.registerPeer(conn)
	}()
}

// transmitPeer is the overlay manager's Transmit: encode on the peer's
// current conn.
func (n *Node) transmitPeer(peer message.NodeID, m proto.Message) error {
	n.mu.Lock()
	conn := n.conns[peer]
	n.mu.Unlock()
	if conn == nil {
		return errors.New("wire: no link")
	}
	return conn.Send(m)
}

func (n *Node) isClosed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// BlockPeer severs the link to a peer and refuses re-establishment —
// dials fail fast and inbound accepts are rejected — until UnblockPeer.
// This is the deterministic link-cut hook behind chaos tests: the overlay
// manager sees the loss immediately (closed conn), queues outbound
// traffic, and its redial loop heals the link as soon as the peer is
// unblocked.
func (n *Node) BlockPeer(peer message.NodeID) {
	n.mu.Lock()
	n.blocked[peer] = true
	conn := n.conns[peer]
	n.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// UnblockPeer lifts a BlockPeer; the dialer side's backoff loop
// re-establishes the link.
func (n *Node) UnblockPeer(peer message.NodeID) {
	n.mu.Lock()
	delete(n.blocked, peer)
	n.mu.Unlock()
}

// LinkStates snapshots the overlay link state per peer.
func (n *Node) LinkStates() map[message.NodeID]overlay.State { return n.ov.States() }

// Info snapshots the overlay links (state, pending backlog, drops), as
// overlay.Manager.Info does for a simulated broker.
func (n *Node) Info() []overlay.LinkInfo { return n.ov.Info() }

// Ready reports overlay convergence — the node's /readyz gate (see
// overlay.Manager.Ready).
func (n *Node) Ready() (ok bool, detail string) { return n.ov.Ready() }

// SetHeartbeat retunes the overlay supervision's heartbeat at runtime
// (the ops /config knob); see overlay.Manager.SetHeartbeat for the
// interval/timeout resolution rules.
func (n *Node) SetHeartbeat(interval, timeout time.Duration) {
	n.ov.SetHeartbeat(interval, timeout)
}

// Heartbeat returns the overlay supervision's current heartbeat interval
// and timeout.
func (n *Node) Heartbeat() (interval, timeout time.Duration) { return n.ov.Heartbeat() }

// readPeerLoop pumps a broker-peer link. Heartbeats (KPing/KPong) are
// handled here at the transport level — a busy event loop must not turn
// into a false link failure, which is also why every other frame records
// the link's liveness here, once — while handshake messages (KHello,
// KSyncInstall) travel through the inbox so their routing-table work runs
// serialized on the event loop. Everything else is normal broker traffic,
// publishes in the relay form (see codec.Decoder.DecodeRelay).
func (n *Node) readPeerLoop(conn *Conn, gen uint64) {
	defer n.wg.Done()
	defer func() { _ = conn.Close() }() // release the conn's flusher goroutine
	dec := conn.dec
	for {
		var m proto.Message
		if err := dec.DecodeRelay(&m); err != nil {
			reason := "link closed"
			if !errors.Is(err, io.EOF) {
				reason = err.Error()
			}
			n.ov.LinkDown(conn.peer, gen, reason)
			return
		}
		switch m.Kind {
		case proto.KPing, proto.KPong:
			n.ov.HandleControl(conn.peer, gen, m)
			continue
		default:
			n.ov.Touch(conn.peer, gen)
		}
		select {
		case n.inbox <- inboxMsg{from: conn.peer, m: m, gen: gen}:
		case <-n.done:
			return
		}
	}
}

func (n *Node) readLoop(conn *Conn) {
	defer n.wg.Done()
	// Full Close, not just fc.close(): the pump exiting (client hung up)
	// must also release the conn's flusher goroutine.
	defer func() { _ = conn.Close() }()
	dec := conn.dec
	for {
		var m proto.Message
		if err := dec.DecodeRelay(&m); err != nil {
			// Connection torn down; the broker's session layer deals with
			// absence via KDisconnect from clients.
			return
		}
		// Flow control is transport-level: credits are consumed here, on
		// the link's own read pump, never via the inbox — a KCredit must
		// be able to unblock an event loop that is itself waiting on this
		// very link's window.
		switch {
		case m.Kind == proto.KCredit:
			conn.fc.grant(m.Credits)
			continue
		case m.Kind == proto.KConnect && m.Credits > 0:
			// Only clients send KConnect, so this link is a client link;
			// arm its delivery window before the broker sees the connect.
			conn.fc.enable(m.Credits)
		}
		select {
		case n.inbox <- inboxMsg{from: conn.peer, m: m}:
		case <-n.done:
			return
		}
	}
}

// eventLoop serializes all broker processing, including the overlay's
// sync-handshake work and the chain's link-transition notifications.
func (n *Node) eventLoop() {
	defer n.wg.Done()
	for {
		select {
		case im := <-n.inbox:
			m := im.m
			m.From = im.from
			// Only the handshake kinds are the overlay's here: heartbeats
			// never reach the inbox, and the read pump already recorded
			// every other peer frame's liveness.
			if (m.Kind == proto.KHello || m.Kind == proto.KSyncInstall) &&
				n.isPeer(im.from) && n.ov.HandleControl(im.from, im.gen, m) {
				continue
			}
			n.b.HandleMessage(im.from, m)
		case <-n.linkWake:
			n.linkMu.Lock()
			evs := n.linkQ
			n.linkQ = nil
			n.linkMu.Unlock()
			for _, ev := range evs {
				n.b.NotifyLinkChange(ev)
			}
		case fn := <-n.tasks:
			fn()
		case <-n.done:
			return
		}
	}
}

// Drain waits until the node's inbox is empty and the event loop has
// processed everything it already dequeued — the graceful-shutdown step
// between "stop taking new work" and "close the store": in-flight
// deliveries and buffer appends complete, so an fsync after Drain captures
// them. Returns true on quiescence, false when the timeout expired or the
// node closed first. New messages can still arrive while draining; Drain
// only guarantees a moment of observed emptiness. It is no barrier for
// frames still in a socket: a frame a peer or client has written but this
// node's read pump has not yet put in the inbox (a KSubscribe sent just
// before the call, say) is processed after Drain returns.
func (n *Node) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if len(n.inbox) == 0 {
			// Round-trip through the event loop: everything dequeued
			// before this task has been fully processed.
			idle := false
			n.Inspect(func(*broker.Broker) { idle = len(n.inbox) == 0 })
			if idle {
				return true
			}
			select {
			case <-n.done:
				return false
			default:
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Inspect runs fn on the node's event loop — the only safe way to read or
// mutate broker state while the node is serving. Blocks until fn returns
// (or the node is closed, in which case fn never runs).
func (n *Node) Inspect(fn func(b *broker.Broker)) {
	doneCh := make(chan struct{})
	select {
	case n.tasks <- func() { fn(n.b); close(doneCh) }:
		<-doneCh
	case <-n.done:
	}
}

// send implements the broker's Send. Broker-peer links go through the
// overlay manager: messages for a link that is down or mid-handshake queue
// in its bounded pending buffer and flush after the sync handshake, so a
// flapped or slow-starting neighbor loses nothing the queue can hold.
// Deliveries on a flow-controlled client link first take a credit per
// note, which blocks the event loop while the client's window is
// exhausted — the backpressure path of the Block overflow policy.
func (n *Node) send(to message.NodeID, m proto.Message) {
	if n.isPeer(to) {
		n.ov.Send(to, m)
		return
	}
	n.mu.Lock()
	conn, ok := n.conns[to]
	n.mu.Unlock()
	if !ok {
		return // client not (yet) linked; drop like a down link
	}
	if m.Kind != proto.KDeliver {
		_ = conn.Send(m)
		return
	}
	if m.Note != nil {
		if conn.fc.take(1) > 0 {
			_ = conn.Send(m)
		}
		return
	}
	// A batch is cut at the credits on hand, so one larger than the window
	// goes out in frames the client can grant back, never waiting for
	// credits it cannot earn. Send encodes before it returns, so the
	// frames may share the batch's backing array.
	for rest := m.Notes; len(rest) > 0; {
		k := conn.fc.take(len(rest))
		if k == 0 {
			return // link closed while waiting for credits
		}
		m.Notes, rest = rest[:k], rest[k:]
		_ = conn.Send(m)
	}
}

// DialLink connects to a remote node and performs the binary handshake,
// announcing `self` as the local ID.
func DialLink(self message.NodeID, addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshakeLink(self, c)
}

// writeBinaryHello emits the binary identification frame:
// magic, version byte, uvarint-length-prefixed node ID.
func writeBinaryHello(bw *bufio.Writer, self message.NodeID) error {
	if _, err := bw.Write(codec.Magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(codec.Version); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(self)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := bw.WriteString(string(self)); err != nil {
		return err
	}
	return bw.Flush()
}

// readBinaryHello parses the version byte and node ID of a binary hello
// whose magic has already been consumed, and returns the negotiated
// protocol version (min of both sides).
func readBinaryHello(br *bufio.Reader) (message.NodeID, byte, error) {
	ver, err := br.ReadByte()
	if err != nil {
		return "", 0, err
	}
	if ver == 0 {
		return "", 0, errors.New("wire: peer announced protocol version 0")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, err
	}
	if n > 1024 {
		return "", 0, fmt.Errorf("wire: absurd hello ID length %d", n)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(br, id); err != nil {
		return "", 0, err
	}
	if ver > codec.Version {
		ver = codec.Version
	}
	return message.NodeID(id), ver, nil
}

// errLegacyPeer names the one interop failure worth a precise message:
// a peer still speaking the gob encoding of the pre-binary releases. The
// fallback was removed after its one-release grace period — upgrade the
// peer; mixed gob/binary deployments are no longer supported.
var errLegacyPeer = errors.New("wire: peer does not speak the binary protocol " +
	"(a legacy gob-encoding node? the gob fallback was removed — upgrade the peer to the binary wire codec)")

// handshakeLink runs the active side of the identification handshake on
// an established TCP connection: send our hello, expect the peer's
// binary hello back.
func handshakeLink(self message.NodeID, c net.Conn) (*Conn, error) {
	bw := bufio.NewWriter(c)
	br := bufio.NewReader(c)
	if err := writeBinaryHello(bw, self); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	magic := make([]byte, len(codec.Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("wire: handshake recv: %w", err)
	}
	if !bytes.Equal(magic, codec.Magic[:]) {
		_ = c.Close()
		return nil, errLegacyPeer
	}
	peer, ver, err := readBinaryHello(br)
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("wire: handshake recv: %w", err)
	}
	// The encoder emits what the negotiated version can decode: fields
	// gated on newer flag bits (the traced hop trail) are stripped for
	// older peers.
	return newConn(peer, c, ver, bw, codec.NewEncoderVersion(bw, ver), codec.NewDecoder(br)), nil
}

// acceptLink performs the passive side of the handshake. The stream must
// open with codec.Magic; anything else — in particular a legacy gob
// hello — is refused with a diagnosis rather than left to time out.
func acceptLink(self message.NodeID, c net.Conn) (*Conn, error) {
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	magic := make([]byte, len(codec.Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("wire: handshake recv: %w", err)
	}
	if !bytes.Equal(magic, codec.Magic[:]) {
		return nil, errLegacyPeer
	}
	peer, ver, err := readBinaryHello(br)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake recv: %w", err)
	}
	if err := writeBinaryHello(bw, self); err != nil {
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	return newConn(peer, c, ver, bw, codec.NewEncoderVersion(bw, ver), codec.NewDecoder(br)), nil
}

// DefaultWindow is the delivery window a RemoteClient announces when none
// is configured: the border broker keeps at most this many deliveries in
// flight ahead of the application's consumption.
const DefaultWindow = 64

// RemoteClient is a client session's TCP transport (internal/client's
// Transport): it dials the border broker, runs the binary handshake and
// pumps deliveries to a callback — the session itself, with its profile,
// epochs, sequencing and dedup, lives in internal/client. Deliveries are
// credit flow controlled: the connect announces a window, and the pump
// grants one credit back per note the onDeliver callback has fully
// consumed, whether it came alone or in a batch — a callback that blocks
// (a full Block-policy stream) therefore stalls the broker's deliveries
// to this client after at most Window in-flight notifications.
type RemoteClient struct {
	ID message.NodeID
	// Window is the delivery credit window announced on Connect
	// (0 = DefaultWindow, negative = disable flow control).
	Window int

	mu        sync.Mutex
	conn      *Conn
	onDeliver func(n message.Notification, subs []message.SubID)
	wg        sync.WaitGroup
}

// NewRemoteClient creates a transport for client id. onDeliver observes
// deliveries together with the subscription identities matched at the
// border (may be nil). Credit flow control grants the next delivery only
// after onDeliver returns.
func NewRemoteClient(id message.NodeID, onDeliver func(n message.Notification, subs []message.SubID)) *RemoteClient {
	return &RemoteClient{ID: id, onDeliver: onDeliver}
}

func (r *RemoteClient) window() int {
	switch {
	case r.Window < 0:
		return 0
	case r.Window == 0:
		return DefaultWindow
	default:
		return r.Window
	}
}

// Connect dials a border broker, starts the delivery pump and announces
// the client (KConnect). epoch is the client's monotonic connect counter
// (see proto.Message.Epoch); pass an incremented value on every connect.
func (r *RemoteClient) Connect(addr string, prev message.NodeID, profile []proto.Subscription, epoch uint64) error {
	_, err := r.Attach(addr, proto.Message{Kind: proto.KConnect, Client: r.ID, Origin: prev, Subs: profile, Epoch: epoch})
	return err
}

// Attach dials the border broker at addr, starts the delivery pump and
// sends hello with the credit window filled in. It returns the ID the
// broker announced in the handshake.
func (r *RemoteClient) Attach(addr string, hello proto.Message) (message.NodeID, error) {
	conn, err := DialLink(r.ID, addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.conn = conn
	r.mu.Unlock()
	r.wg.Add(1)
	go r.pump(conn)
	hello.Credits = r.window()
	return conn.Peer(), conn.Send(hello)
}

func (r *RemoteClient) pump(conn *Conn) {
	defer r.wg.Done()
	defer func() { _ = conn.Close() }() // broker hung up: release the flusher
	window := r.window()
	// Credits are granted in chunks of half the window rather than one
	// per delivery: the broker never fully drains its window before the
	// first grant arrives, and the credit traffic is window/2-fold
	// cheaper than per-delivery acks.
	grantAt := window / 2
	if grantAt < 1 {
		grantAt = 1
	}
	consumed := 0
	dec := conn.dec
	deliver := r.onDeliver
	if deliver == nil {
		deliver = func(message.Notification, []message.SubID) {}
	}
	for {
		var m proto.Message
		if err := dec.Decode(&m); err != nil {
			return
		}
		if m.Kind != proto.KDeliver {
			continue
		}
		notes := len(m.Notes)
		if m.Note != nil {
			notes++
			deliver(*m.Note, m.SubIDs)
		}
		for i := range m.Notes {
			deliver(m.Notes[i], m.SubIDs)
		}
		if window > 0 && notes > 0 {
			// The notes have been consumed (or buffered) end to end;
			// hand the broker their credits back.
			if consumed += notes; consumed >= grantAt {
				_ = conn.Send(proto.Message{Kind: proto.KCredit, Client: r.ID, Credits: consumed})
				consumed = 0
			}
		}
	}
}

// Send transmits an arbitrary client message (publish, subscribe, …). The
// message is encoded before Send returns.
func (r *RemoteClient) Send(m proto.Message) error {
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn == nil {
		return errors.New("wire: client not connected")
	}
	return conn.Send(m)
}

// Disconnect announces departure and closes the link.
func (r *RemoteClient) Disconnect() error {
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.mu.Unlock()
	if conn == nil {
		return nil
	}
	err := conn.Send(proto.Message{Kind: proto.KDisconnect, Client: r.ID})
	_ = conn.Close()
	r.wg.Wait()
	return err
}
