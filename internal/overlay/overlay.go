// Package overlay is the broker-overlay link subsystem: every
// broker↔broker link is owned by a per-broker Manager as a supervised
// state machine instead of a fire-and-forget dial. The manager is
// transport-agnostic — the live TCP runner (internal/wire) and the
// discrete-event simulator (internal/sim) both host the same state
// machine through injected callbacks, so link-failure scenarios written
// once run under real sockets and under the virtual clock alike.
//
// A link walks connecting → handshaking → established → degraded →
// closed:
//
//   - connecting: the physical link is being brought up. The dialer side
//     attempts the Dial callback and, on failure, retries with jittered
//     exponential backoff; the passive side waits for an inbound link.
//   - handshaking: the physical link is up; the two ends run the
//     versioned sync handshake. Each side sends a KHello stamped with
//     its handshake generation; each side answers a KHello with a
//     KSyncInstall replaying its local routing installs (subscriptions)
//     and echoing the hello's generation. A side is established once it
//     receives a KSyncInstall matching its current generation; stale
//     replies from superseded link generations are discarded. A
//     handshake that does not complete within the heartbeat timeout
//     tears the link down and starts over.
//   - established: the link carries traffic. Messages queued while the
//     link was down flush first (before the peer's replay is applied, so
//     per-link FIFO order vs. the sender's earlier sync reply holds),
//     then the peer's installs are applied. KPing probes flow every
//     HeartbeatInterval; a link silent for longer than HeartbeatTimeout
//     is declared failed.
//   - degraded: an established link was lost (read error, send error, or
//     missed heartbeats). Outbound messages queue in a bounded pending
//     buffer (oldest dropped beyond PendingCap) and the dialer side
//     reconnects with backoff. Re-establishment replays the pending
//     buffer after a fresh sync handshake, so routing state reconverges
//     before the backlog lands.
//   - closed: the manager was shut down.
//
// Because every (re-)establishment replays installs before traffic, the
// broker start order stops mattering: a broker may dial a neighbor that
// is not up yet (backoff retries), and a restarted broker re-learns the
// overlay's routing state from its neighbors while they re-learn its —
// the self-healing topology behind rolling restarts and link flaps.
package overlay

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// State is a link's lifecycle position.
type State int

// Link states, in lifecycle order.
const (
	// StateClosed is the terminal (and zero) state: no link is being
	// maintained.
	StateClosed State = iota
	// StateConnecting: bringing the physical link up; never established
	// in this manager's lifetime.
	StateConnecting
	// StateHandshaking: physical link up, sync handshake in flight.
	StateHandshaking
	// StateEstablished: handshake complete, link carries traffic,
	// heartbeats flow.
	StateEstablished
	// StateDegraded: a previously established link was lost; outbound
	// traffic queues while the dialer side reconnects.
	StateDegraded
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateConnecting:
		return "connecting"
	case StateHandshaking:
		return "handshaking"
	case StateEstablished:
		return "established"
	case StateDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Event is one link state transition, as seen by observers.
type Event struct {
	// Peer is the remote broker of the link.
	Peer message.NodeID
	// From and To are the states around the transition.
	From, To State
	// Reason is a short human-readable cause ("heartbeat timeout",
	// "link up", …).
	Reason string
	// At is the manager's (virtual or wall) time of the transition.
	At time.Time
}

// Observer consumes link transitions. It is called synchronously from
// whatever goroutine drove the transition (event loop, timer, read
// pump) and must not block; it may call the manager's read-only
// accessors but not its mutating methods.
type Observer func(Event)

// Settings tunes the link supervision. The zero value selects the
// defaults noted per field.
type Settings struct {
	// HeartbeatInterval is the KPing period on established links
	// (default 1s). It also bounds how long a handshake may stall: a
	// link still handshaking after HeartbeatTimeout is torn down.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a link failed after this much silence
	// (default 3×HeartbeatInterval). Any inbound message counts as
	// liveness, not just pongs.
	HeartbeatTimeout time.Duration
	// BackoffBase is the first redial delay (default 50ms); each failed
	// attempt doubles it up to BackoffMax (default 3s). Actual delays
	// are jittered uniformly in [base/2, base].
	BackoffBase time.Duration
	// BackoffMax caps the redial delay (default 3s).
	BackoffMax time.Duration
	// BackoffSeed seeds the jitter source (0 = a fixed default; the
	// jitter is deterministic given the seed, which the simulator
	// relies on).
	BackoffSeed int64
	// PendingCap bounds the per-link queue of messages accepted while
	// the link is down (default 4096); beyond it the oldest messages
	// are dropped and counted.
	PendingCap int
}

func (s Settings) withDefaults() Settings {
	if s.HeartbeatInterval <= 0 {
		s.HeartbeatInterval = time.Second
	}
	if s.HeartbeatTimeout <= 0 {
		s.HeartbeatTimeout = 3 * s.HeartbeatInterval
	}
	if s.BackoffBase <= 0 {
		s.BackoffBase = 50 * time.Millisecond
	}
	if s.BackoffMax <= 0 {
		s.BackoffMax = 3 * time.Second
	}
	if s.BackoffMax < s.BackoffBase {
		s.BackoffMax = s.BackoffBase
	}
	if s.PendingCap <= 0 {
		s.PendingCap = 4096
	}
	return s
}

// Config wires a Manager to its host. All callbacks are invoked without
// the manager's lock held; SyncState and ApplySync are only ever called
// from within HandleControl, so a host that calls HandleControl on its
// broker's event loop gets routing-state access serialized for free.
type Config struct {
	// Self names the hosting broker.
	Self message.NodeID
	// Settings tunes supervision; zero fields take defaults.
	Settings Settings
	// Now supplies (virtual) time. Defaults to time.Now.
	Now func() time.Time
	// Transmit sends one message on the peer's current physical link.
	// An error marks the link down and requeues the message.
	Transmit func(peer message.NodeID, m proto.Message) error
	// Dial asynchronously attempts the peer's physical link. The host
	// reports the outcome via LinkUp or DialFailed — exactly one per
	// attempt. Nil for hosts whose links are all passive.
	Dial func(peer message.NodeID)
	// CloseLink tears the peer's physical link down (heartbeat timeout,
	// stalled handshake). May be nil when there is nothing to close.
	CloseLink func(peer message.NodeID)
	// Schedule runs fn once after d on the host's clock and returns a
	// cancel func. All manager timers (heartbeats, redials, handshake
	// deadlines) go through it, so the simulator can drive them on the
	// virtual clock.
	Schedule func(d time.Duration, fn func()) (cancel func())
	// SyncState returns the local installs to replay to the peer on
	// link establishment (the broker's SyncInstalls).
	SyncState func(peer message.NodeID) []proto.Subscription
	// ApplySync reconciles the peer's replayed installs into local
	// routing state (the broker's ApplySyncInstalls).
	ApplySync func(peer message.NodeID, subs []proto.Subscription)
	// Spill, when non-nil, extends every link's pending queue onto
	// persistent storage: messages evicted by PendingCap move to a
	// per-link store queue ("ovl/<self>/<peer>") instead of being
	// dropped, bounded by SpillBudget bytes (drop-oldest past it), and
	// replay in order on re-establishment — after the sync handshake,
	// before fresh traffic. Spill IO runs only on degraded-link paths;
	// established links never touch it.
	Spill store.Store
	// SpillBudget bounds each link's spilled bytes (default
	// DefaultSpillBudget). Only meaningful with Spill.
	SpillBudget int64
	// Observer, when non-nil, sees every link transition.
	Observer Observer
	// Logger, when non-nil, receives structured link-transition events
	// (established = info, loss of an established link = warn, the
	// intermediate supervision states = debug).
	Logger *slog.Logger
}

// LinkInfo is a link's introspection snapshot.
type LinkInfo struct {
	// Peer is the remote broker.
	Peer message.NodeID
	// State is the current lifecycle state.
	State State
	// Dialer reports whether this side actively dials the link.
	Dialer bool
	// Established counts completed handshakes over the manager's
	// lifetime (≥1 ⇒ the link has carried traffic at some point).
	Established int
	// Pending is the number of messages queued for the down link.
	Pending int
	// Dropped counts messages discarded by the pending-queue bound (and,
	// with spill configured, by the spill's byte budget — every loss is
	// counted exactly once, here).
	Dropped int
	// SpillDepth is the number of messages currently spilled to the
	// store for this link (0 without spill).
	SpillDepth int
	// SpillBytes is the encoded size of the spilled backlog.
	SpillBytes int64
	// SpillDropped counts messages the spill itself discarded (byte
	// budget, append failures). Included in Dropped.
	SpillDropped int
	// LastSeen is the time of the last inbound message on the link.
	LastSeen time.Time
}

type link struct {
	peer        message.NodeID
	dialer      bool
	state       State
	gen         uint64 // handshake generation; bumped per LinkUp
	lastSeen    time.Time
	pending     []proto.Message
	dropped     int
	established int
	backoff     time.Duration
	spill       *spillState // store-backed overflow queue (nil without spill)
	cancelHB    func()      // heartbeat tick or handshake deadline
	cancelRetry func()      // pending redial
}

func (l *link) cancelTimers() {
	if l.cancelHB != nil {
		l.cancelHB()
		l.cancelHB = nil
	}
	if l.cancelRetry != nil {
		l.cancelRetry()
		l.cancelRetry = nil
	}
}

// Manager supervises one broker's overlay links. Safe for concurrent
// use: the live runner drives it from read pumps, timers and the event
// loop at once; the simulator from its single loop.
type Manager struct {
	cfg Config
	set Settings

	mu     sync.Mutex
	rng    *rand.Rand
	links  map[message.NodeID]*link
	closed bool
}

// New builds a manager from the config.
func New(cfg Config) *Manager {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Transmit == nil {
		panic("overlay: Config.Transmit is required")
	}
	set := cfg.Settings.withDefaults()
	if cfg.Spill != nil && cfg.SpillBudget <= 0 {
		cfg.SpillBudget = DefaultSpillBudget
	}
	seed := set.BackoffSeed
	if seed == 0 {
		// Derive the default from the broker's identity: deterministic
		// (the simulator's runs stay reproducible) yet different per
		// broker, so a partitioned clique's redial jitter is actually
		// decorrelated. An explicit BackoffSeed overrides.
		h := fnv.New64a()
		_, _ = h.Write([]byte(cfg.Self))
		seed = int64(h.Sum64())
		if seed == 0 {
			seed = 1
		}
	}
	return &Manager{
		cfg:   cfg,
		set:   set,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[message.NodeID]*link),
	}
}

// Self returns the hosting broker's ID.
func (m *Manager) Self() message.NodeID { return m.cfg.Self }

// AddPeer registers an overlay link to supervise. The dialer side
// starts its first dial attempt immediately; the passive side waits for
// the host to report an inbound link via LinkUp.
func (m *Manager) AddPeer(peer message.NodeID, dialer bool) {
	// Discover any persisted backlog before taking the lock (store IO):
	// a broker restarted with a non-empty spill on disk resumes it.
	sp := m.loadSpill(peer)
	m.mu.Lock()
	if m.closed || m.links[peer] != nil {
		m.mu.Unlock()
		return
	}
	m.links[peer] = &link{
		peer:    peer,
		dialer:  dialer,
		state:   StateConnecting,
		backoff: m.set.BackoffBase,
		spill:   sp,
	}
	m.mu.Unlock()
	m.observe(peer, StateClosed, StateConnecting, "peer added")
	if dialer && m.cfg.Dial != nil {
		m.cfg.Dial(peer)
	}
}

// RemovePeer stops supervising a departed peer: timers are cancelled,
// the pending queue is discarded, the physical link is closed and the
// link forgotten (a later AddPeer starts fresh). Safe to call for
// unknown peers. Driven by the discovery subsystem when a broker leaves
// the registry.
func (m *Manager) RemovePeer(peer message.NodeID) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil {
		m.mu.Unlock()
		return
	}
	from := l.state
	l.cancelTimers()
	l.state = StateClosed
	// With spill configured the undelivered backlog outlives the peer's
	// membership: it moves to the store and replays if the peer ever
	// returns (a later AddPeer rediscovers the queue).
	m.spillPendingLocked(l)
	delete(m.links, peer)
	m.mu.Unlock()
	if m.cfg.CloseLink != nil {
		m.cfg.CloseLink(peer)
	}
	m.observe(peer, from, StateClosed, "peer removed")
}

// Resync re-runs the sync handshake's routing replay on an established
// link without touching its lifecycle: a KHello at the current
// generation solicits the peer's KSyncInstall (accepted while
// established), reconciling routing state when a mesh tree change
// reactivates a standby link. No-op unless the link is established.
func (m *Manager) Resync(peer message.NodeID) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed || l.state != StateEstablished {
		m.mu.Unlock()
		return
	}
	gen := l.gen
	m.mu.Unlock()
	m.transmit(peer, gen, proto.Message{Kind: proto.KHello, Origin: m.cfg.Self, Epoch: gen})
}

// Ready reports convergence — a broker's /readyz gate, on whichever host
// runs the manager: every configured link is established (each
// establishment completes the sync handshake, so routing installs are
// applied before the link counts) and has replayed its store-backed spill
// backlog. A manager with no peers is trivially ready. detail names the
// links still converging.
func (m *Manager) Ready() (ok bool, detail string) {
	links := m.Info()
	var waiting []string
	for _, li := range links {
		switch {
		case li.State != StateEstablished:
			waiting = append(waiting, fmt.Sprintf("%s:%s", li.Peer, li.State))
		case li.SpillDepth > 0:
			// The handshake completed but the link is still replaying its
			// partition backlog: fresh traffic is ordered behind it, so
			// the broker is not yet serving at full fidelity.
			waiting = append(waiting, fmt.Sprintf("%s:established,flushing(%d)", li.Peer, li.SpillDepth))
		}
	}
	if len(waiting) > 0 {
		return false, "links not established: " + strings.Join(waiting, ", ")
	}
	return true, fmt.Sprintf("%d link(s) established", len(links))
}

// TakePending removes and returns the peer's queued backlog. The mesh
// layer re-routes it along the new spanning tree when the peer's link
// leaves the tree, so traffic queued toward a cut link is not stranded
// until (if ever) the link heals.
func (m *Manager) TakePending(peer message.NodeID) []proto.Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.links[peer]
	if l == nil || len(l.pending) == 0 {
		return nil
	}
	out := l.pending
	l.pending = nil
	return out
}

// LinkUp reports a freshly established physical link (successful dial
// or inbound accept). It starts the sync handshake and returns the
// link's new handshake generation; the host tags the link's read pump
// with it so events from superseded links are ignored. ok is false for
// unknown peers or a closed manager — the host should drop the link.
func (m *Manager) LinkUp(peer message.NodeID) (gen uint64, ok bool) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed {
		m.mu.Unlock()
		return 0, false
	}
	from := l.state
	l.gen++
	gen = l.gen
	l.state = StateHandshaking
	l.lastSeen = m.cfg.Now()
	l.cancelTimers()
	// A handshake that stalls (peer died mid-dial, sync reply lost) may
	// not produce any read error; bound it by the heartbeat timeout.
	l.cancelHB = m.schedule(m.set.HeartbeatTimeout, func() { m.handshakeDeadline(peer, gen) })
	m.mu.Unlock()
	m.observe(peer, from, StateHandshaking, "link up")
	m.transmit(peer, gen, proto.Message{Kind: proto.KHello, Origin: m.cfg.Self, Epoch: gen})
	return gen, true
}

// DialFailed reports a failed dial attempt; the manager schedules the
// next one with jittered exponential backoff.
func (m *Manager) DialFailed(peer message.NodeID) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed || !l.dialer ||
		l.state == StateHandshaking || l.state == StateEstablished {
		m.mu.Unlock()
		return
	}
	m.scheduleRedialLocked(l)
	m.mu.Unlock()
}

// LinkDown reports a lost physical link (read error, closed conn). gen
// must be the generation LinkUp returned for that link; 0 matches any
// (hosts without per-link generations, e.g. the simulator).
func (m *Manager) LinkDown(peer message.NodeID, gen uint64, reason string) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed || (gen != 0 && gen != l.gen) {
		m.mu.Unlock()
		return
	}
	if l.state != StateHandshaking && l.state != StateEstablished {
		m.mu.Unlock()
		return
	}
	from := l.state
	to := StateConnecting
	if l.established > 0 {
		to = StateDegraded
	}
	l.state = to
	l.cancelTimers()
	if l.dialer {
		m.scheduleRedialLocked(l)
	}
	m.mu.Unlock()
	m.observe(peer, from, to, reason)
}

// Touch records inbound liveness on the link (any message counts).
func (m *Manager) Touch(peer message.NodeID, gen uint64) {
	m.mu.Lock()
	if l := m.links[peer]; l != nil && (gen == 0 || gen == l.gen) {
		l.lastSeen = m.cfg.Now()
	}
	m.mu.Unlock()
}

// HandleControl offers the manager an inbound message from the peer.
// It consumes the overlay's link-local kinds (KHello, KSyncInstall,
// KPing, KPong) and returns whether the message was consumed; all other
// kinds are left to the broker (the manager records their liveness).
func (m *Manager) HandleControl(peer message.NodeID, gen uint64, msg proto.Message) bool {
	switch msg.Kind {
	case proto.KHello, proto.KSyncInstall, proto.KPing, proto.KPong:
	default:
		m.Touch(peer, gen)
		return false
	}
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed || (gen != 0 && gen != l.gen) {
		m.mu.Unlock()
		return true
	}
	l.lastSeen = m.cfg.Now()
	curGen := l.gen
	switch msg.Kind {
	case proto.KPong:
		m.mu.Unlock()
	case proto.KPing:
		if l.state != StateEstablished && l.state != StateHandshaking {
			// We consider this link down (our end is closed): answering
			// would keep a half-open link looking healthy to a peer that
			// never saw the failure. Starved of pongs, the peer times out
			// and re-establishes — both ends reconverge.
			m.mu.Unlock()
			return true
		}
		m.mu.Unlock()
		m.transmit(peer, curGen, proto.Message{Kind: proto.KPong, Origin: m.cfg.Self})
	case proto.KHello:
		if l.state != StateHandshaking && l.state != StateEstablished {
			// The physical link exists (a message arrived) but the host
			// never reported it up: stale pump — drop.
			m.mu.Unlock()
			return true
		}
		m.mu.Unlock()
		var subs []proto.Subscription
		if m.cfg.SyncState != nil {
			subs = m.cfg.SyncState(peer)
		}
		m.transmit(peer, curGen, proto.Message{
			Kind: proto.KSyncInstall, Origin: m.cfg.Self,
			Epoch: msg.Epoch, Subs: subs,
		})
	case proto.KSyncInstall:
		if l.state == StateEstablished && msg.Epoch == curGen {
			// A resync replay on a live link (Resync: a mesh tree change
			// reactivated a standby link): reconcile routing state without
			// touching the link lifecycle — no pending flush, no timer
			// resets.
			m.mu.Unlock()
			if m.cfg.ApplySync != nil {
				m.cfg.ApplySync(peer, msg.Subs)
			}
			return true
		}
		if l.state != StateHandshaking || msg.Epoch != curGen {
			// A duplicate, or the reply to a hello from a superseded
			// link generation: the versioning exists to discard exactly
			// this.
			m.mu.Unlock()
			return true
		}
		from := l.state
		l.state = StateEstablished
		l.established++
		l.backoff = m.set.BackoffBase
		pending := l.pending
		l.pending = nil
		l.cancelTimers()
		l.cancelHB = m.schedule(m.set.HeartbeatInterval, func() { m.heartbeatTick(peer, curGen) })
		m.mu.Unlock()
		m.observe(peer, from, StateEstablished,
			fmt.Sprintf("synced (%d installs replayed by peer)", len(msg.Subs)))
		// The spilled backlog is strictly older than the in-memory pending
		// queue (eviction moves the pending head to the spill tail), so it
		// replays first. A mid-drain transmit failure marks the link down;
		// the pending batch goes back through requeueFront so nothing is
		// silently lost.
		if m.cfg.Spill != nil {
			if !m.drainSpill(peer, curGen) {
				m.requeueFront(peer, curGen, pending)
				return true
			}
		}
		// Flush the backlog before applying the peer's replay: our sync
		// reply already precedes the backlog on the wire (FIFO link), so
		// the peer routes it against re-synced tables — and anything our
		// ApplySync emits below stays behind the backlog likewise.
		for i, pm := range pending {
			if err := m.cfg.Transmit(peer, pm); err != nil {
				m.requeueFront(peer, curGen, pending[i:])
				m.LinkDown(peer, curGen, fmt.Sprintf("flush: %v", err))
				return true
			}
		}
		if m.cfg.ApplySync != nil {
			m.cfg.ApplySync(peer, msg.Subs)
		}
	}
	return true
}

// Send transmits m to the peer if its link is established, and queues
// it in the bounded pending buffer otherwise. A transmit error requeues
// the message and marks the link down.
func (m *Manager) Send(peer message.NodeID, msg proto.Message) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed {
		m.mu.Unlock()
		return
	}
	if l.state != StateEstablished {
		m.enqueueLocked(l, msg)
		m.mu.Unlock()
		return
	}
	gen := l.gen
	m.mu.Unlock()
	if err := m.cfg.Transmit(peer, msg); err != nil {
		m.mu.Lock()
		if l := m.links[peer]; l != nil && l.gen == gen {
			m.enqueueLocked(l, msg)
		} else if l != nil {
			// Re-established under a new generation while this transmit was
			// failing: the message cannot be ordered into the new queue.
			l.dropped++
		}
		m.mu.Unlock()
		m.LinkDown(peer, gen, fmt.Sprintf("send: %v", err))
	}
}

// SetHeartbeat retunes the link supervision at runtime (the ops /config
// knob): the next scheduled tick of every established link picks the new
// interval up, and silence checks use the new timeout immediately. A
// non-positive timeout resolves to 3× the (new) interval; a non-positive
// interval keeps the current one.
func (m *Manager) SetHeartbeat(interval, timeout time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if interval > 0 {
		m.set.HeartbeatInterval = interval
	}
	if timeout > 0 {
		m.set.HeartbeatTimeout = timeout
	} else {
		m.set.HeartbeatTimeout = 3 * m.set.HeartbeatInterval
	}
}

// Heartbeat returns the current heartbeat interval and timeout.
func (m *Manager) Heartbeat() (interval, timeout time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.set.HeartbeatInterval, m.set.HeartbeatTimeout
}

// State returns the peer's link state (StateClosed for unknown peers).
func (m *Manager) State(peer message.NodeID) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.links[peer]; l != nil {
		return l.state
	}
	return StateClosed
}

// States snapshots every link's state.
func (m *Manager) States() map[message.NodeID]State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[message.NodeID]State, len(m.links))
	for p, l := range m.links {
		out[p] = l.state
	}
	return out
}

// Info snapshots every link, sorted by peer ID.
func (m *Manager) Info() []LinkInfo {
	m.mu.Lock()
	out := make([]LinkInfo, 0, len(m.links))
	for _, l := range m.links {
		li := LinkInfo{
			Peer: l.peer, State: l.state, Dialer: l.dialer,
			Established: l.established, Pending: len(l.pending),
			Dropped: l.dropped, LastSeen: l.lastSeen,
		}
		if l.spill != nil {
			li.SpillDepth = l.spill.depth()
			li.SpillBytes = l.spill.bytes
			li.SpillDropped = l.spill.drops
		}
		out = append(out, li)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Close stops all supervision: timers are cancelled and every link goes
// to StateClosed. The physical links are the host's to close.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, l := range m.links {
		l.cancelTimers()
		l.state = StateClosed
	}
	m.mu.Unlock()
}

// --- internals ----------------------------------------------------------

// enqueueLocked appends to the bounded pending buffer. Beyond the cap
// the oldest message is spilled to the store when spill is configured
// (append-before-evict: the eviction happens only once the record is
// persisted — a failed append degrades to a counted drop), and dropped
// otherwise. Callers hold m.mu.
func (m *Manager) enqueueLocked(l *link, msg proto.Message) {
	if len(l.pending) >= m.set.PendingCap {
		if l.spill != nil {
			m.evictToSpillLocked(l, l.pending[0])
		} else {
			l.dropped++
		}
		l.pending = l.pending[1:]
	}
	l.pending = append(l.pending, msg)
}

// requeueFront puts an unflushed backlog suffix back at the head of the
// pending buffer (gen-guarded against a racing re-establishment). Front
// overflow spills when configured; every discarded message is counted
// — including a whole batch that loses the generation race, which was
// silently lost before.
func (m *Manager) requeueFront(peer message.NodeID, gen uint64, msgs []proto.Message) {
	m.mu.Lock()
	l := m.links[peer]
	switch {
	case l == nil:
		// Peer removed mid-flush: the batch is gone with the link.
	case l.gen != gen:
		// A re-establishment superseded this flush; its batch cannot be
		// ordered against the new generation's queue — count the loss so
		// rebeca_link_dropped_total stays truthful.
		l.dropped += len(msgs)
	default:
		l.pending = append(append([]proto.Message(nil), msgs...), l.pending...)
		for len(l.pending) > m.set.PendingCap {
			if l.spill != nil {
				m.evictToSpillLocked(l, l.pending[0])
			} else {
				l.dropped++
			}
			l.pending = l.pending[1:]
		}
	}
	m.mu.Unlock()
}

// schedule wraps cfg.Schedule (nil-tolerant for hosts without timers).
func (m *Manager) schedule(d time.Duration, fn func()) func() {
	if m.cfg.Schedule == nil {
		return nil
	}
	return m.cfg.Schedule(d, fn)
}

// scheduleRedialLocked arms the next dial attempt with jittered
// exponential backoff. Callers hold m.mu.
func (m *Manager) scheduleRedialLocked(l *link) {
	if m.cfg.Dial == nil || m.cfg.Schedule == nil {
		return
	}
	if l.cancelRetry != nil {
		l.cancelRetry()
	}
	// Jitter uniformly in [backoff/2, backoff] so a partitioned clique
	// does not reconnect in lockstep.
	d := l.backoff/2 + time.Duration(m.rng.Int63n(int64(l.backoff/2)+1))
	l.backoff *= 2
	if l.backoff > m.set.BackoffMax {
		l.backoff = m.set.BackoffMax
	}
	peer, gen := l.peer, l.gen
	l.cancelRetry = m.cfg.Schedule(d, func() {
		m.mu.Lock()
		cur := m.links[peer]
		ok := cur != nil && !m.closed && cur.gen == gen &&
			cur.state != StateHandshaking && cur.state != StateEstablished
		m.mu.Unlock()
		if ok {
			m.cfg.Dial(peer)
		}
	})
}

// handshakeDeadline fires when a handshake stalls past the heartbeat
// timeout: tear the physical link down and let the dialer retry.
func (m *Manager) handshakeDeadline(peer message.NodeID, gen uint64) {
	m.mu.Lock()
	l := m.links[peer]
	stalled := l != nil && !m.closed && l.gen == gen && l.state == StateHandshaking
	m.mu.Unlock()
	if !stalled {
		return
	}
	if m.cfg.CloseLink != nil {
		m.cfg.CloseLink(peer)
	}
	m.LinkDown(peer, gen, "handshake timeout")
}

// heartbeatTick probes the link and checks for silence.
func (m *Manager) heartbeatTick(peer message.NodeID, gen uint64) {
	m.mu.Lock()
	l := m.links[peer]
	if l == nil || m.closed || l.gen != gen || l.state != StateEstablished {
		m.mu.Unlock()
		return
	}
	if m.cfg.Now().Sub(l.lastSeen) > m.set.HeartbeatTimeout {
		m.mu.Unlock()
		if m.cfg.CloseLink != nil {
			m.cfg.CloseLink(peer)
		}
		m.LinkDown(peer, gen, "heartbeat timeout")
		return
	}
	l.cancelHB = m.schedule(m.set.HeartbeatInterval, func() { m.heartbeatTick(peer, gen) })
	m.mu.Unlock()
	m.transmit(peer, gen, proto.Message{Kind: proto.KPing, Origin: m.cfg.Self})
}

// transmit sends on the current physical link, tearing the link down on
// error.
func (m *Manager) transmit(peer message.NodeID, gen uint64, msg proto.Message) {
	if err := m.cfg.Transmit(peer, msg); err != nil {
		m.LinkDown(peer, gen, fmt.Sprintf("send: %v", err))
	}
}

func (m *Manager) observe(peer message.NodeID, from, to State, reason string) {
	if from == to {
		return
	}
	if l := m.cfg.Logger; l != nil {
		switch {
		case to == StateEstablished:
			l.Info("link established", "self", m.cfg.Self, "peer", peer, "from", from.String())
		case from == StateEstablished:
			l.Warn("link lost", "self", m.cfg.Self, "peer", peer, "to", to.String(), "reason", reason)
		default:
			l.Debug("link transition", "self", m.cfg.Self, "peer", peer,
				"from", from.String(), "to", to.String(), "reason", reason)
		}
	}
	if m.cfg.Observer == nil {
		return
	}
	m.cfg.Observer(Event{Peer: peer, From: from, To: to, Reason: reason, At: m.cfg.Now()})
}
