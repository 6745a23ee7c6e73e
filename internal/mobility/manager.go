// Package mobility implements physical mobility (§1, [8]): transparent
// relocation of roaming clients between border brokers so that "a relocated
// client receives a transparent, uninterrupted flow of notifications
// matching his subscriptions".
//
// The Manager is a border-broker middleware stage owning client sessions. The
// transparent protocol relocates a client c from old border b1 to new
// border b2 in these steps:
//
//  1. c connects at b2 (KConnect names b1). b2 opens a relocating-in
//     session that buffers every delivery, and unicasts KRelocReq to b1.
//  2. b1 — which has been buffering for the disconnected ghost — replies
//     KRelocProfile with c's subscription profile and buffer, and from now
//     on holds new matches (the stragglers) for the tail; a durable
//     session appends each to its queue first, as a ghost does.
//  3. b2 installs the profile's subscriptions and unicasts KRelocActivate
//     to b1. Each installation is a relocation flip, which Router.Subscribe
//     forwards on every link still routing away from b2, so it travels the
//     whole b2→b1 path and goes no further; the activate follows the same
//     next-hop path after it. Links are FIFO, so on each link the activate
//     arrives after the flip, and the flip after every note the sending
//     broker routed toward b1 before it flipped.
//  4. b1 receives KRelocActivate. By then b1 has flipped, and every note
//     routed toward b1 by a pre-flip entry has reached b1 and is held.
//     b1 sends KRelocTail carrying the held stragglers and forgets c.
//  5. b2 merges profile buffer, the tail's stragglers and its own direct
//     deliveries — deduplicated by notification ID, ordered by
//     (publisher, seq) — replays them to c in one KDeliver and goes
//     live.
//
// The handover thus costs messages on the b1–b2 path only, not on the
// whole tree. On any graph the flips and the unicasts both follow the
// current elected tree; a re-election mid-handover can put them on
// different paths, which breaks this argument as it breaks the order of
// routed notes in general.
//
// The result is no loss, no duplicates and per-publisher FIFO across the
// handover. Experiment E1 compares it with two baselines. The naive one
// (reconnect-and-resubscribe) is a broker with no manager at all: its
// default handling installs a connecting client's profile and withdraws it
// on disconnect. ModeJEDI (explicit moveOut/moveIn, related work [2]) is
// this manager with the ordering turned off, the way covering is E3's
// routing ablation: no relocating-out state and so no held stragglers,
// no KRelocActivate or KRelocTail. b1 withdraws c's entries as it ships the
// profile, so a note routed toward b1 before b2's flips is lost. A JEDI
// session runs through everything else here (connect, ghost buffering, the
// request and profile, the Stale and Fresh replies, finishRelocation,
// replay, teardown), so a separate JEDI stage would copy most of this
// file.
//
// # Staleness layer
//
// Chaotic movement (instant reconnects, ping-pong and chained moves, moves
// colliding with in-flight relocations) creates races the basic protocol
// cannot order. A monotonic connect epoch, stamped by the client library on
// every KConnect and echoed on every relocation message, resolves them:
//
//   - a KRelocReq older than the latest connect seen locally is declined
//     (Stale reply); the requester restarts against the decliner if its
//     client has since reconnected, or tears down and forwards its buffer
//     to the client's current border otherwise;
//   - at most one relocation request queues behind a busy session; a
//     superseded request is declined, never silently dropped;
//   - requests reaching a relocating-out session are redirected along the
//     shipment chain to whatever session ends up holding the state;
//   - a torn-down requester ships its buffer to the client's current
//     border as a KRelocTail marked Stale, which ends no relocation run;
//   - a border with no session replies Fresh, letting the requester go
//     live from the client's announced profile, with no activate or tail;
//   - unsubscription waves only remove routing entries still pointing at
//     the unsubscriber (relocation flips make them stale otherwise).
//
// A state shipment arriving at a session that no longer expects it (the
// run was superseded) is absorbed — subscriptions merged, buffer delivered
// or re-buffered — and the sender acknowledged, so no fragment is lost and
// no sender strands in relocating-out. A tail no run is waiting for is
// absorbed the same way: its notes are delivered, buffered, or held for
// the session's own tail, by the session's state.
//
// internal/sim's stress suite drives hundreds of seeded chaos schedules
// through these paths and asserts the no-loss/no-dup/FIFO invariant plus
// session-leak freedom at quiescence, with and without link-latency
// jitter. Guarantee boundary: the lossless invariant assumes dwell times
// at least on the order of the relocation round trip. Clients that outrun
// the protocol for sustained periods (sub-RTT bouncing) can orphan
// buffered fragments and reorder replays — "degraded service", as the
// paper predicts; real deployments additionally bound relocation runs with
// wall-clock timeouts, which the virtual-time core deliberately omits. The
// pathological regime's surviving guarantees (quiescence, no duplicate
// deliveries, fresh registrations get full service) are exercised by
// TestStressPathologicalLiveness.
package mobility

import (
	"fmt"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/codec"
	"rebeca/internal/dedup"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// Mode selects the handover protocol. Enums start at one.
type Mode int

// Supported modes.
const (
	ModeInvalid Mode = iota
	// ModeTransparent runs the full relocation protocol described above.
	ModeTransparent
	// ModeJEDI ships profile and buffer once, without the activate/tail
	// handshake: in-flight traffic can be lost during routing
	// reconfiguration.
	ModeJEDI
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTransparent:
		return "transparent"
	case ModeJEDI:
		return "jedi"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

type sessionState int

const (
	stateConnected sessionState = iota + 1
	// stateGhost: client disconnected; deliveries are buffered here.
	stateGhost
	// stateRelocatingIn: this broker is the new border; deliveries are
	// buffered until the tail arrives.
	stateRelocatingIn
	// stateRelocatingOut: this broker is the old border; deliveries are
	// held as stragglers, and the tail carries them to the new border.
	stateRelocatingOut
)

func (s sessionState) String() string {
	switch s {
	case stateConnected:
		return "connected"
	case stateGhost:
		return "ghost"
	case stateRelocatingIn:
		return "relocating-in"
	case stateRelocatingOut:
		return "relocating-out"
	default:
		return "invalid"
	}
}

type session struct {
	client message.NodeID
	state  sessionState
	// subs is the client's static subscription profile (location-dependent
	// subscriptions belong to the replicator layer, not here).
	subs map[message.SubID]proto.Subscription
	// subOrder preserves issue order for deterministic re-installation.
	subOrder []message.SubID
	// buf holds undelivered notifications (ghost and relocating-in).
	buf buffer.Policy
	// seen dedups the relocation merge by notification ID.
	seen *dedup.Window[struct{}]
	// shipTo is the new border while relocating out.
	shipTo message.NodeID
	// held are the stragglers: deliveries that reached this broker while
	// it relocated out. The tail carries them.
	held []message.Notification
	// pendingReloc queues a KRelocReq that arrived mid-relocation.
	pendingReloc message.NodeID
	// ghostOnComplete marks that the client disconnected while relocating
	// in; the session becomes a ghost once the relocation completes.
	ghostOnComplete bool
	// reconnectPending marks that the client reconnected here while the
	// outbound relocation was still running (ping-pong move). Once the
	// outbound protocol completes, this border starts a fresh inbound
	// relocation to pull the state back.
	reconnectPending bool
	// epoch is the client's connect epoch of its latest KConnect at THIS
	// border. Relocation messages echo epochs so stale protocol runs
	// (superseded by a newer move) are detected.
	epoch uint64
	// outEpoch is the epoch the current outbound relocation serves.
	outEpoch uint64
	// pendingEpoch is the epoch of the queued pendingReloc request.
	pendingEpoch uint64
	// reqEpoch identifies the inbound relocation run this session is
	// waiting on (the epoch sent in our KRelocReq). It stays fixed even if
	// the client reconnects here while the relocation is still in flight.
	reqEpoch uint64
	// announced is the subscription profile the client declared in its
	// KConnect; used to heal sessions when the previous border had no
	// state to ship (e.g. after a stale-session teardown).
	announced []proto.Subscription
	// pullTarget is the border the current relocating-in run requests
	// from (diagnostics).
	pullTarget message.NodeID
}

func (s *session) profile() []proto.Subscription {
	out := make([]proto.Subscription, 0, len(s.subOrder))
	for _, id := range s.subOrder {
		if sub, ok := s.subs[id]; ok {
			out = append(out, sub)
		}
	}
	return out
}

func (s *session) addSub(sub proto.Subscription) {
	if _, ok := s.subs[sub.ID]; !ok {
		s.subOrder = append(s.subOrder, sub.ID)
	}
	s.subs[sub.ID] = sub
}

func (s *session) removeSub(id message.SubID) {
	if _, ok := s.subs[id]; !ok {
		return
	}
	delete(s.subs, id)
	for i, o := range s.subOrder {
		if o == id {
			s.subOrder = append(s.subOrder[:i], s.subOrder[i+1:]...)
			break
		}
	}
}

// Manager is the physical-mobility layer of one border broker: a stage of
// the broker's middleware chain that consumes the session and relocation
// protocols (MessageInterceptor), claims deliveries for clients that are
// not there to take them (OnDeliver).
type Manager struct {
	broker.PassMiddleware
	b        *broker.Broker
	mode     Mode
	factory  buffer.Factory
	store    store.Store
	sessions map[message.NodeID]*session
}

// Option configures a Manager.
type Option func(*Manager)

// WithBufferFactory sets the ghost/relocation buffer policy (default
// unbounded).
func WithBufferFactory(f buffer.Factory) Option {
	return func(m *Manager) { m.factory = f }
}

// WithStore backs every session buffer with a persistence queue and every
// session profile with a store snapshot: notifications are appended before
// a ghost buffers them and acked only when their delivery (replay to the
// reconnected client) or handover (KRelocActivate from the new border) is
// confirmed, and a restarted broker rebuilds its disconnected-client
// sessions with Recover.
func WithStore(s store.Store) Option {
	return func(m *Manager) { m.store = s }
}

// New attaches a mobility manager to a border broker's middleware chain and
// returns it.
func New(b *broker.Broker, mode Mode, opts ...Option) *Manager {
	m := &Manager{
		b:        b,
		mode:     mode,
		factory:  func() buffer.Policy { return buffer.NewUnbounded() },
		sessions: make(map[message.NodeID]*session),
	}
	for _, o := range opts {
		o(m)
	}
	b.UseMiddleware(m)
	return m
}

// --- persistence -------------------------------------------------------

// The durable image of one session is its subscription profile in issue
// order, stored as the message that already means exactly that: a
// KRelocProfile carrying Subs, in the codec's encoding. Everything else
// (state, epochs) is protocol-transient — after a crash every client is
// disconnected, so recovered sessions restart as ghosts, and a
// relocating-out session's stragglers are in its queue.

// sessionKey names a session's snapshot and buffer queue in the store.
// The broker ID is part of the key: in-process deployments share one
// store across all brokers.
func (m *Manager) sessionKey(c message.NodeID) string {
	return "mob/" + string(m.b.ID()) + "/" + string(c)
}

// newBuffer builds a session buffer, store-backed when durability is on.
// Building on a non-empty queue recovers its pending notifications.
func (m *Manager) newBuffer(c message.NodeID) buffer.Policy {
	if m.store == nil {
		return m.factory()
	}
	return buffer.NewDurable(m.store, m.sessionKey(c), m.factory())
}

// persist snapshots a session's profile (no-op without a store).
func (m *Manager) persist(s *session) {
	if m.store == nil {
		return
	}
	snap := proto.Message{Kind: proto.KRelocProfile, Subs: s.profile()}
	_ = m.store.Snapshot(m.sessionKey(s.client), codec.AppendMessage(nil, &snap))
}

// forget deletes a session's snapshot (no-op without a store). The
// buffer queue is acked separately by the delivery/handover paths.
func (m *Manager) forget(c message.NodeID) {
	if m.store == nil {
		return
	}
	_ = m.store.Snapshot(m.sessionKey(c), nil)
}

// release acks and compacts a session's durable queue — the path behind
// Subscription.Cancel on a durable subscription, so cancelled queues stop
// pinning WAL segments. Compact rewrites the store's live state, which is
// acceptable on the event loop because the rewrite is bounded by what is
// still pending (acked records are skipped) and last-subscription
// cancellations are rare control-plane events; deployments where that
// ever measures should amortize on a garbage-ratio threshold instead.
func (m *Manager) release(s *session) {
	if d, ok := s.buf.(*buffer.Durable); ok {
		d.Release()
	} else {
		s.buf.Clear()
	}
}

// Recover rebuilds the sessions persisted by a previous process on the
// same store: each snapshot becomes a ghost session whose subscriptions
// are re-installed into the routing table (and propagated to peers) and
// whose buffer reloads the queue's pending notifications. Call it once,
// after the broker is wired into its overlay and before client traffic.
// Returns the number of sessions recovered.
func (m *Manager) Recover() int {
	if m.store == nil {
		return 0
	}
	prefix := "mob/" + string(m.b.ID()) + "/"
	recovered := 0
	for key, blob := range m.store.Snapshots(prefix) {
		c := message.NodeID(key[len(prefix):])
		if _, ok := m.sessions[c]; ok || c == "" {
			continue
		}
		snap, err := codec.DecodeMessage(blob)
		if err != nil || snap.Kind != proto.KRelocProfile {
			m.b.NotifyMechanism(broker.MobilityRecoveryErrors, 1)
			continue
		}
		s := m.newSession(c, stateGhost)
		m.sessions[c] = s
		m.b.AttachPort(c)
		for _, sub := range snap.Subs {
			s.addSub(sub)
			m.b.InstallSub(sub, c)
		}
		recovered++
	}
	m.b.NotifyMechanism(broker.MobilityRecoveredSessions, recovered)
	return recovered
}

// SessionState reports a session's state name for tests ("" if absent).
func (m *Manager) SessionState(c message.NodeID) string {
	s, ok := m.sessions[c]
	if !ok {
		return ""
	}
	return s.state.String()
}

// OnMessage implements broker.MessageInterceptor: the session events and
// the relocation protocol. A handler that declines passes the message on.
func (m *Manager) OnMessage(_ *broker.Broker, from message.NodeID, msg proto.Message, next func()) {
	var consumed bool
	switch msg.Kind {
	case proto.KConnect:
		consumed = m.onConnect(msg)
	case proto.KDisconnect:
		consumed = m.onDisconnect(msg)
	case proto.KSubscribe:
		consumed = m.onSubscribe(from, msg)
	case proto.KUnsubscribe:
		consumed = m.onUnsubscribe(from, msg)
	case proto.KRelocReq:
		consumed = m.onRelocReq(msg)
	case proto.KRelocProfile:
		consumed = m.onRelocProfile(msg)
	case proto.KRelocActivate:
		consumed = m.onRelocActivate(msg)
	case proto.KRelocTail:
		consumed = m.onRelocTail(msg)
	}
	if !consumed {
		next()
	}
}

// OnDeliver implements broker.Middleware: buffering and holding stragglers.
// n is the broker's copy for the duration of the hook only; what is kept
// or forwarded is a copy of the value.
func (m *Manager) OnDeliver(_ *broker.Broker, port message.NodeID, n *message.Notification, _ []message.SubID, next func()) {
	s, ok := m.sessions[port]
	if !ok {
		next()
		return
	}
	switch s.state {
	case stateGhost:
		s.buf.Add(*n, m.b.Now())
		m.b.NotifyMechanism(broker.MobilityBuffered, 1)
	case stateRelocatingIn:
		m.bufferDedup(s, *n)
	case stateRelocatingOut:
		m.hold(s, *n)
	default:
		next()
	}
}

// hold keeps a straggler for the tail. A durable session appends it to
// its queue first, as a ghost does, so a crash before the activate keeps
// it; the activate's Clear acks it with the shipped buffer.
func (m *Manager) hold(s *session, n message.Notification) {
	if m.store != nil {
		s.buf.Add(n, m.b.Now())
	}
	s.held = append(s.held, n)
}

func (m *Manager) bufferDedup(s *session, n message.Notification) {
	if !n.ID.IsZero() && s.seen.Seen(n.ID) {
		m.b.NotifyMechanism(broker.MobilityDuplicatesDropped, 1)
		return
	}
	s.buf.Add(n, m.b.Now())
	m.b.NotifyMechanism(broker.MobilityBuffered, 1)
}

// --- session events ----------------------------------------------------

func (m *Manager) onConnect(msg proto.Message) bool {
	c := msg.Client
	prev := msg.Origin
	if s, ok := m.sessions[c]; ok {
		s.epoch = msg.Epoch
		s.announced = staticSubs(msg.Subs)
		switch s.state {
		case stateGhost:
			// Reconnect at the same border: heal any subscriptions the
			// client gained elsewhere, then replay the ghost buffer.
			m.b.AttachPort(c)
			s.state = stateConnected
			m.reconcile(s)
			m.replay(s)
			return true
		case stateRelocatingOut:
			// Ping-pong: the client came back before the outbound
			// relocation finished. Let the outbound protocol run to
			// completion, then pull the state back with a fresh inbound
			// relocation (see onRelocActivate's continuation) — from the
			// border the client actually arrived from, which holds (or is
			// receiving) the newest state.
			s.reconnectPending = true
			s.ghostOnComplete = false
			m.b.AttachPort(c)
			return true
		case stateRelocatingIn:
			// Reconnect at the same border mid-relocation: cancel a
			// pending ghost transition and carry on. The in-flight run
			// still collects the freshest reachable state; anything the
			// client picked up on a brief detour reaches it through the
			// announced-profile reconciliation and stale-run restarts.
			s.ghostOnComplete = false
			m.b.AttachPort(c)
			return true
		default:
			// Duplicate connect: ignore.
			return true
		}
	}
	switch {
	case prev == "", prev == m.b.ID():
		// Fresh session: install the client's own profile.
		s := m.newSession(c, stateConnected)
		s.epoch = msg.Epoch
		m.sessions[c] = s
		m.b.AttachPort(c)
		for _, sub := range staticSubs(msg.Subs) {
			s.addSub(sub)
			m.b.InstallSub(sub, c)
		}
		m.persist(s)
		return true
	default:
		// Relocation from prev.
		s := m.newSession(c, stateRelocatingIn)
		s.epoch = msg.Epoch
		s.reqEpoch = msg.Epoch
		s.announced = staticSubs(msg.Subs)
		s.pullTarget = prev
		m.sessions[c] = s
		m.b.AttachPort(c)
		m.b.Unicast(prev, proto.Message{
			Kind: proto.KRelocReq, Client: c, Origin: m.b.ID(), Epoch: msg.Epoch,
		})
		return true
	}
}

// staticSubs filters out location- and context-dependent subscriptions:
// those belong to the replicator layer, not the session profile (§3.1's
// separation of concerns).
func staticSubs(subs []proto.Subscription) []proto.Subscription {
	var out []proto.Subscription
	for _, s := range subs {
		if !s.Filter.Dynamic() {
			out = append(out, s)
		}
	}
	return out
}

// reconcile installs announced-profile subscriptions the session does not
// know about — subscriptions the client issued at borders whose state never
// made it back here.
func (m *Manager) reconcile(s *session) {
	changed := false
	for _, sub := range s.announced {
		if _, ok := s.subs[sub.ID]; ok {
			continue
		}
		s.addSub(sub)
		m.b.InstallSub(sub, s.client)
		changed = true
	}
	if changed {
		m.persist(s)
	}
}

func (m *Manager) newSession(c message.NodeID, st sessionState) *session {
	return &session{
		client: c,
		state:  st,
		subs:   make(map[message.SubID]proto.Subscription),
		buf:    m.newBuffer(c),
		seen:   dedup.New[struct{}](0),
	}
}

func (m *Manager) onDisconnect(msg proto.Message) bool {
	s, ok := m.sessions[msg.Client]
	if !ok {
		return false
	}
	switch s.state {
	case stateConnected:
		s.state = stateGhost
		return true // keep the port attached; we intercept deliveries
	case stateRelocatingIn:
		s.ghostOnComplete = true
		return true
	case stateRelocatingOut:
		if s.reconnectPending {
			// The client reconnected here mid-relocation and left again:
			// the pulled-back session must start as a ghost.
			s.ghostOnComplete = true
		}
		return true
	default:
		return true
	}
}

func (m *Manager) onSubscribe(from message.NodeID, msg proto.Message) bool {
	s, ok := m.sessions[from]
	if !ok || msg.Sub == nil {
		return false
	}
	s.addSub(*msg.Sub)
	m.persist(s)
	return false // default handling installs and forwards
}

func (m *Manager) onUnsubscribe(from message.NodeID, msg proto.Message) bool {
	s, ok := m.sessions[from]
	if !ok || msg.Sub == nil {
		return false
	}
	s.removeSub(msg.Sub.ID)
	m.persist(s)
	if len(s.subs) == 0 && m.store != nil {
		// The last (durable) subscription was cancelled: nothing can ever
		// be delivered from this queue again. Ack everything and compact
		// so the cancelled queue stops pinning WAL segments.
		m.release(s)
	}
	return false
}

// --- relocation protocol -------------------------------------------------

func (m *Manager) onRelocReq(msg proto.Message) bool {
	c, newBorder := msg.Client, msg.Origin
	s, ok := m.sessions[c]
	if !ok {
		// Nothing known about the client (fresh start after teardown, or a
		// previous border without a manager): tell the new border to proceed from the client's
		// announced profile, with no handover to wait for.
		m.b.Unicast(newBorder, proto.Message{
			Kind: proto.KRelocProfile, Client: c, Origin: m.b.ID(),
			Epoch: msg.Epoch, Fresh: true,
		})
		return true
	}
	if msg.Epoch < s.epoch {
		// Stale request: the client has reconnected here (or a newer
		// relocation superseded this one). Decline; the requester tears
		// its outdated session down.
		m.b.Unicast(newBorder, proto.Message{
			Kind: proto.KRelocProfile, Client: c, Origin: m.b.ID(),
			Epoch: msg.Epoch, Stale: true,
		})
		return true
	}
	switch s.state {
	case stateRelocatingIn:
		// Mid-relocation request: queue it; the chain serves it once the
		// state settles here. Only one slot exists — the loser of an
		// overwrite is declined so it can restart or tear down instead of
		// waiting forever. (A mutual-pull cycle — both borders awaiting
		// each other — can in principle wedge here; it requires the
		// client to outrun the relocation round trip, a regime real
		// deployments bound with wall-clock run timeouts.)
		m.queuePending(s, newBorder, msg.Epoch)
		return true
	case stateRelocatingOut:
		if s.shipTo == newBorder {
			// The requester is the very border this state is being
			// shipped to: the in-flight profile will reach it and be
			// absorbed. Tell it to go live from its announced profile.
			m.b.Unicast(newBorder, proto.Message{
				Kind: proto.KRelocProfile, Client: c, Origin: m.b.ID(),
				Epoch: msg.Epoch, Fresh: true,
			})
			return true
		}
		// The state is mid-shipment: redirect the request to the border
		// it is being shipped to. The redirect chases the shipment chain
		// and terminates at whatever session ends up holding the state.
		fw := msg
		m.b.Unicast(s.shipTo, fw)
		return true
	default:
		m.beginRelocOut(s, newBorder, msg.Epoch)
		return true
	}
}

// queuePending stores the newest relocation request on a busy session and
// declines whichever request loses the slot.
func (m *Manager) queuePending(s *session, newBorder message.NodeID, epoch uint64) {
	if epoch <= s.pendingEpoch {
		if epoch != s.pendingEpoch || newBorder != s.pendingReloc {
			m.decline(s.client, newBorder, epoch)
		}
		return
	}
	prevBorder, prevEpoch := s.pendingReloc, s.pendingEpoch
	s.pendingReloc = newBorder
	s.pendingEpoch = epoch
	if prevBorder != "" {
		m.decline(s.client, prevBorder, prevEpoch)
	}
}

// decline tells a requester its relocation run is superseded.
func (m *Manager) decline(c, border message.NodeID, epoch uint64) {
	m.b.Unicast(border, proto.Message{
		Kind: proto.KRelocProfile, Client: c, Origin: m.b.ID(),
		Epoch: epoch, Stale: true,
	})
}

func (m *Manager) beginRelocOut(s *session, newBorder message.NodeID, epoch uint64) {
	notes := s.buf.Snapshot(m.b.Now())
	if m.store == nil || m.mode == ModeJEDI {
		s.buf.Clear()
	}
	// With a store, the transparent protocol keeps the shipped buffer
	// pending until KRelocActivate confirms the new border holds it: a
	// crash mid-handover redelivers from the queue instead of losing the
	// shipment (the client's dedup set absorbs the overlap).
	profile := s.profile()
	if m.mode == ModeJEDI {
		// Ship everything at once, unsubscribe immediately, forget. No
		// activate: in-flight traffic may be lost.
		for _, id := range append([]message.SubID(nil), s.subOrder...) {
			m.b.RemoveSub(id)
		}
		m.forget(s.client)
		m.b.DetachPort(s.client)
		delete(m.sessions, s.client)
		m.b.Unicast(newBorder, proto.Message{
			Kind: proto.KRelocProfile, Client: s.client, Origin: m.b.ID(),
			Subs: profile, Notes: notes, Epoch: epoch,
		})
		return
	}
	s.state = stateRelocatingOut
	s.shipTo = newBorder
	s.outEpoch = epoch
	m.b.Unicast(newBorder, proto.Message{
		Kind: proto.KRelocProfile, Client: s.client, Origin: m.b.ID(),
		Subs: profile, Notes: notes, Epoch: epoch,
	})
}

func (m *Manager) onRelocProfile(msg proto.Message) bool {
	c, oldBorder := msg.Client, msg.Origin
	s, ok := m.sessions[c]
	if !ok || s.state != stateRelocatingIn || msg.Epoch != s.reqEpoch {
		// A profile this session did not ask for (or asked for under a
		// different epoch). When a superseded run's holder ships its
		// state here, losing it would lose its buffer and strand the
		// sender in relocating-out: absorb it and acknowledge.
		if ok && !msg.Stale && !msg.Fresh {
			switch s.state {
			case stateConnected, stateGhost:
				m.absorb(s, msg)
			}
		}
		return true
	}
	if msg.Stale {
		if s.epoch > msg.Epoch {
			// The client reconnected HERE after the declined request: the
			// session is live, only the relocation run is outdated. The
			// decliner has seen the newer epoch — restart the pull
			// against it with our current epoch.
			s.reqEpoch = s.epoch
			s.pullTarget = msg.Origin
			m.b.Unicast(msg.Origin, proto.Message{
				Kind: proto.KRelocReq, Client: c, Origin: m.b.ID(), Epoch: s.reqEpoch,
			})
			return true
		}
		// The client moved on: ship anything we intercepted to wherever
		// it now is, tear down, and forget.
		m.teardown(s, msg.Origin)
		return true
	}
	if msg.Fresh {
		// No old state exists: go live from the announced profile.
		m.reconcile(s)
		s.state = stateConnected
		m.finishRelocation(s)
		return true
	}
	for _, sub := range msg.Subs {
		s.addSub(sub)
		m.b.InstallSub(sub, c)
	}
	if len(msg.Subs) > 0 {
		m.persist(s)
	}
	// Heal subscriptions the shipped profile does not cover (the client
	// may have started from an empty previous border after a teardown).
	m.reconcile(s)
	for _, n := range msg.Notes {
		m.bufferDedup(s, n)
	}
	if m.mode == ModeJEDI {
		s.state = stateConnected
		m.finishRelocation(s)
		return true
	}
	// The activate follows the flips InstallSub just sent toward the old
	// border down the same FIFO path (step 3). It echoes the
	// relocation-run epoch, not the (possibly newer) connect epoch from a
	// same-border reconnect.
	m.b.Unicast(oldBorder, proto.Message{
		Kind: proto.KRelocActivate, Client: c, Origin: m.b.ID(), Epoch: s.reqEpoch,
	})
	return true
}

// absorb merges an unexpected (forked) state shipment into a settled
// session: subscriptions are (re)installed — flipping routing entries
// toward this border, which hosts the client's newest connect — buffered
// notifications are delivered or buffered, and the sender is activated so
// its outbound run completes and cleans up.
func (m *Manager) absorb(s *session, msg proto.Message) {
	for _, sub := range msg.Subs {
		s.addSub(sub)
		m.b.InstallSub(sub, s.client)
	}
	if len(msg.Subs) > 0 {
		m.persist(s)
	}
	m.absorbNotes(s, msg.Notes)
	m.b.Unicast(msg.Origin, proto.Message{
		Kind: proto.KRelocActivate, Client: s.client, Origin: m.b.ID(), Epoch: msg.Epoch,
	})
}

// absorbNotes takes notes no relocation run waits for into the session, by
// its state: delivered in one KDeliver if the client is connected here,
// deduplicated into the buffer of a ghost or a relocating-in session, held
// for the tail of a relocating-out one.
func (m *Manager) absorbNotes(s *session, notes []message.Notification) {
	message.ByID(notes)
	if s.state == stateConnected {
		m.deliverBatch(s, notes)
		return
	}
	for _, n := range notes {
		if s.state == stateRelocatingOut {
			m.hold(s, n)
		} else {
			m.bufferDedup(s, n)
		}
	}
}

// teardown dismantles a superseded session: intercepted notifications are
// shipped to the client's current border in one KRelocTail, marked Stale
// so that it ends no relocation run there, locally owned routing entries
// are withdrawn (entries already flipped away are left alone — they belong
// to the new border now), and the session is forgotten.
func (m *Manager) teardown(s *session, currentBorder message.NodeID) {
	if s.pendingReloc != "" {
		// A requester queued behind this dying session must not wait
		// forever. Clear before declining: a (self-addressed) decline
		// dispatches synchronously and must not re-enter this branch.
		target, epoch := s.pendingReloc, s.pendingEpoch
		s.pendingReloc = ""
		s.pendingEpoch = 0
		m.decline(s.client, target, epoch)
	}
	if notes := s.buf.Snapshot(m.b.Now()); len(notes) > 0 {
		m.b.Unicast(currentBorder, proto.Message{
			Kind: proto.KRelocTail, Client: s.client, Origin: m.b.ID(),
			Stale: true, Notes: notes,
		})
	}
	// Ack (durable Clear) only after the tail is handed to the transport —
	// same append-before-deliver/ack-after contract as replay.
	s.buf.Clear()
	for _, id := range append([]message.SubID(nil), s.subOrder...) {
		m.b.RemoveSub(id)
	}
	m.forget(s.client)
	m.b.DetachPort(s.client)
	delete(m.sessions, s.client)
}

func (m *Manager) onRelocActivate(msg proto.Message) bool {
	c, newBorder := msg.Client, msg.Origin
	s, ok := m.sessions[c]
	if !ok || s.state != stateRelocatingOut || s.shipTo != newBorder ||
		msg.Epoch != s.outEpoch {
		return true
	}
	// No unsubscription here: the new border's re-subscription has
	// flipped every entry on the path toward itself, and the activate came
	// behind those flips, so every straggler a pre-flip entry routed here
	// is held (step 4). The tail carries them.
	m.b.Unicast(newBorder, proto.Message{
		Kind: proto.KRelocTail, Client: c, Origin: m.b.ID(), Epoch: s.outEpoch,
		Notes: s.held,
	})
	m.b.NotifyMechanism(broker.MobilityTapForwarded, len(s.held))
	s.held = nil
	// Handover confirmed: the new border holds the shipped buffer and the
	// stragglers, so the durable queue behind them can be acked (no-op
	// without a store — the buffer was already cleared at ship time).
	s.buf.Clear()
	if s.reconnectPending {
		// Ping-pong: the client is physically back here. Pull the session
		// state back with a fresh inbound relocation. The RelocReq follows
		// the tail on the same FIFO unicast path, so the peer processes
		// the tail (going ghost) first.
		ns := m.newSession(c, stateRelocatingIn)
		ns.epoch = s.epoch
		ns.reqEpoch = s.epoch
		ns.announced = s.announced
		ns.ghostOnComplete = s.ghostOnComplete
		m.sessions[c] = ns
		m.b.Unicast(newBorder, proto.Message{
			Kind: proto.KRelocReq, Client: c, Origin: m.b.ID(), Epoch: ns.reqEpoch,
		})
		return true
	}
	m.forget(c)
	m.b.DetachPort(c)
	delete(m.sessions, c)
	return true
}

func (m *Manager) onRelocTail(msg proto.Message) bool {
	s, ok := m.sessions[msg.Client]
	if !ok {
		return true
	}
	// The run's own tail merges its stragglers into the relocating-in
	// buffer before the replay; any other tail's notes are absorbed.
	m.absorbNotes(s, msg.Notes)
	if msg.Stale || s.state != stateRelocatingIn || msg.Epoch != s.reqEpoch {
		return true
	}
	s.state = stateConnected
	m.b.NotifyMechanism(broker.MobilityRelocations, 1)
	m.finishRelocation(s)
	return true
}

// finishRelocation replays the merged buffer and processes queued events.
// Follow-up pulls (resumeFrom) run first — the state collected so far is
// incomplete until the newest fork is merged; queued outbound requests and
// ghost transitions follow.
func (m *Manager) finishRelocation(s *session) {
	if s.pendingReloc != "" && s.pendingEpoch <= s.epoch {
		// The queued request was superseded by a newer connect here:
		// decline it so the stale requester cleans up.
		m.b.Unicast(s.pendingReloc, proto.Message{
			Kind: proto.KRelocProfile, Client: s.client, Origin: m.b.ID(),
			Epoch: s.pendingEpoch, Stale: true,
		})
		s.pendingReloc = ""
		s.pendingEpoch = 0
	}
	switch {
	case s.pendingReloc != "":
		// The client has already moved on: hand everything over instead
		// of replaying locally.
		next := s.pendingReloc
		nextEpoch := s.pendingEpoch
		s.pendingReloc = ""
		s.pendingEpoch = 0
		s.seen = dedup.New[struct{}](0)
		m.beginRelocOut(s, next, nextEpoch)
	case s.ghostOnComplete:
		// The client disconnected while relocating in: keep the merged
		// buffer for its return.
		s.ghostOnComplete = false
		s.state = stateGhost
		s.seen = dedup.New[struct{}](0)
	default:
		m.replay(s)
		s.seen = dedup.New[struct{}](0)
	}
}

// replay delivers the session buffer in one KDeliver whose Notes are in
// (publisher, seq) order, then clears it — for a durable buffer the Clear
// is the delivery ack, so it runs only after the transport has taken the
// whole batch. A crash in between redelivers on the next reconnect; the
// client's dedup set keeps the stream exactly-once.
func (m *Manager) replay(s *session) {
	notes := s.buf.Snapshot(m.b.Now())
	message.ByID(notes)
	m.b.NotifyMechanism(broker.MobilityReplayed, len(notes))
	m.deliverBatch(s, notes)
	s.buf.Clear()
}

// deliverBatch hands notes, already in (publisher, seq) order, to the
// connected client as one KDeliver; an empty batch sends nothing.
func (m *Manager) deliverBatch(s *session, notes []message.Notification) {
	if len(notes) > 0 {
		m.b.Send(s.client, proto.Message{Kind: proto.KDeliver, Client: s.client, Notes: notes})
	}
}

var _ broker.MessageInterceptor = (*Manager)(nil)
