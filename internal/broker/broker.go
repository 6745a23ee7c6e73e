// Package broker implements the REBECA broker process (§2): routing of
// notifications along the spanning tree elected over the overlay (on a
// forest, every edge; see mesh.go), subscription forwarding per the
// configured routing strategy, and unicast control-message routing via
// next-hop tables. Border and inner brokers run the same state machine;
// border brokers additionally host the session layers (the replicator and
// the physical-mobility manager, ordinary stages of the middleware chain)
// and local client ports.
//
// A Broker is a synchronous state machine: HandleMessage runs to completion
// and emits outgoing messages through the injected senders. The simulator
// and the live TCP runner drive the same code.
package broker

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"rebeca/internal/codec"
	"rebeca/internal/dedup"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
)

// Config assembles a broker.
type Config struct {
	// ID names the broker.
	ID message.NodeID
	// Peers are the neighboring brokers until the host declares the overlay
	// graph (SetMeshTopology), whose elected tree replaces them.
	Peers []message.NodeID
	// Strategy selects the routing algorithm (default StrategySimple).
	Strategy routing.Strategy
	// Send transmits a message to a directly linked node: an overlay peer
	// or a local client port.
	Send func(to message.NodeID, m proto.Message)
	// SendDirect transmits out-of-band, bypassing the overlay — the
	// replicator's "direct TCP connections" of §3.2. Optional; defaults
	// to Send.
	SendDirect func(to message.NodeID, m proto.Message)
	// Now supplies (virtual) time.
	Now func() time.Time
	// NextHop maps a destination broker to the neighbor toward it, until
	// the host declares the graph.
	NextHop map[message.NodeID]message.NodeID
}

// Stats counts broker-local activity.
type Stats struct {
	// PublishesRouted counts KPublish messages processed.
	PublishesRouted int
	// Forwarded counts KPublish copies sent to peers.
	Forwarded int
	// Delivered counts local client deliveries (post-interception).
	Delivered int
	// Intercepted counts deliveries consumed by a chain stage.
	Intercepted int
	// SubsProcessed counts subscription/unsubscription messages.
	SubsProcessed int
	// UnicastForwarded counts control messages in transit.
	UnicastForwarded int
}

// Broker is one broker process. Not safe for concurrent use; drive it from
// a single goroutine (the simulator loop or a live node's inbox pump).
type Broker struct {
	cfg    Config
	router *routing.Router
	peers  map[message.NodeID]bool
	ports  map[message.NodeID]bool
	// peerList is peers in ID order, built by Peers and dropped (set to
	// nil) wherever peers is replaced.
	peerList []message.NodeID

	// chain is the ordered middleware chain. The slices after it are the
	// stages implementing each optional interface, in chain order, resolved
	// once in UseMiddleware. free holds the idle chain cursors, hook the
	// cursor whose stage hook is the innermost one running (middleware.go).
	chain         []Middleware
	publishers    []PublishInterceptor
	interceptors  []MessageInterceptor
	linkObservers []LinkObserver
	dropObservers []DropObserver
	mechObservers []MechanismObserver
	free          []*cursor
	hook          *cursor

	// The spanning-tree election (see mesh.go). seen and seenLinks are nil
	// while the declared graph is a forest.
	mesh         *Mesh
	seen         *dedup.Window[seenEntry] // forwarding memory
	seenLinks    map[message.NodeID]int   // its link numbers, never reused
	waveSeq      uint64                   // re-anchor waves issued by this broker
	waves        map[string]uint64        // highest wave epoch seen per (anchor, id)
	onTreeChange func(added, removed []message.NodeID)

	// log receives structured broker-core events (spanning-tree
	// recomputations, flood fallbacks); nil stays silent.
	log *slog.Logger

	// attrs is the publish being routed, as the attribute list matching
	// reads: scratch, valid until the match returns. names interns the
	// strings of the relay-form notes this broker builds Notifications from.
	attrs filter.Attrs
	names codec.Interner

	stats Stats
}

// SetLogger attaches a structured logger for broker-core events (nil
// detaches). Call before the broker starts processing messages.
func (b *Broker) SetLogger(l *slog.Logger) { b.log = l }

// New builds a broker from the config. Once its host declares the overlay
// graph (SetMeshTopology) the configured peers and next hops are replaced
// by the elected spanning tree's.
func New(cfg Config) *Broker {
	if cfg.Send == nil {
		panic("broker: Config.Send is required")
	}
	if cfg.SendDirect == nil {
		cfg.SendDirect = cfg.Send
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Strategy == routing.StrategyInvalid {
		cfg.Strategy = routing.StrategySimple
	}
	b := &Broker{
		cfg:    cfg,
		router: routing.NewIndexedRouter(cfg.Strategy),
		peers:  make(map[message.NodeID]bool),
		ports:  make(map[message.NodeID]bool),
		mesh:   NewMesh(cfg.ID),
		waves:  make(map[string]uint64),
	}
	for _, p := range cfg.Peers {
		b.peers[p] = true
	}
	return b
}

// ID returns the broker's node ID.
func (b *Broker) ID() message.NodeID { return b.cfg.ID }

// Now returns the broker's current (virtual) time.
func (b *Broker) Now() time.Time { return b.cfg.Now() }

// Stats returns a copy of the broker's counters.
func (b *Broker) Stats() Stats { return b.stats }

// Router exposes the routing state (tests and experiments inspect it).
func (b *Broker) Router() *routing.Router { return b.router }

// UseMiddleware appends stages to the broker's middleware chain. Stages run
// in attachment order (first attached = outermost); stages attached after
// the session layers run inside them, i.e. they see only the traffic the
// session layers pass through.
func (b *Broker) UseMiddleware(ms ...Middleware) {
	for _, m := range ms {
		b.chain = append(b.chain, m)
		if s, ok := m.(PublishInterceptor); ok {
			b.publishers = append(b.publishers, s)
		}
		if s, ok := m.(MessageInterceptor); ok {
			b.interceptors = append(b.interceptors, s)
		}
		if s, ok := m.(LinkObserver); ok {
			b.linkObservers = append(b.linkObservers, s)
		}
		if s, ok := m.(DropObserver); ok {
			b.dropObservers = append(b.dropObservers, s)
		}
		if s, ok := m.(MechanismObserver); ok {
			b.mechObservers = append(b.mechObservers, s)
		}
	}
}

// Middlewares returns the chain length (session layers included) —
// introspection for tests and stats.
func (b *Broker) Middlewares() int { return len(b.chain) }

// Peers returns the broker's overlay neighbors in ID order. The slice is
// shared and read-only: callers must not modify it, nor keep it past a
// peer change (a re-election), which builds a new one.
func (b *Broker) Peers() []message.NodeID {
	if b.peerList == nil {
		out := make([]message.NodeID, 0, len(b.peers))
		for p := range b.peers {
			out = append(out, p)
		}
		sortNodeIDs(out)
		b.peerList = out
	}
	return b.peerList
}

// AttachPort registers a local client port.
func (b *Broker) AttachPort(id message.NodeID) { b.ports[id] = true }

// DetachPort removes a local client port; its table entries are the
// caller's to withdraw or keep.
func (b *Broker) DetachPort(id message.NodeID) {
	delete(b.ports, id)
}

// HasPort reports whether the node is an attached local port.
func (b *Broker) HasPort(id message.NodeID) bool { return b.ports[id] }

// Ports returns attached port IDs, sorted.
func (b *Broker) Ports() []message.NodeID {
	out := make([]message.NodeID, 0, len(b.ports))
	for p := range b.ports {
		out = append(out, p)
	}
	sortNodeIDs(out)
	return out
}

// portFilter selects the links whose matched subscription IDs MatchByLink
// should collect: only local ports — peer forwards carry no identity.
func (b *Broker) portFilter(link message.NodeID) bool { return b.ports[link] }

// Send transmits to a direct neighbor or local port.
func (b *Broker) Send(to message.NodeID, m proto.Message) { b.cfg.Send(to, m) }

// Direct transmits out-of-band to any node (replicator channel).
func (b *Broker) Direct(to message.NodeID, m proto.Message) { b.cfg.SendDirect(to, m) }

// Unicast routes a control message through the overlay to the destination
// broker. Sending to self dispatches locally (synchronously).
func (b *Broker) Unicast(dest message.NodeID, m proto.Message) {
	m.Dest = dest
	if dest == b.cfg.ID {
		b.HandleMessage(b.cfg.ID, m)
		return
	}
	hop, ok := b.cfg.NextHop[dest]
	if !ok {
		// Destination unknown to the overlay: drop. Experiments never hit
		// this; live nodes log it via stats.
		return
	}
	b.Send(hop, m)
}

// HandleMessage processes one incoming message. `from` is the immediate
// sender (neighbor broker, local port, or this broker for self-dispatch).
func (b *Broker) HandleMessage(from message.NodeID, m proto.Message) {
	// Unicast transit: not for us, pass along the overlay path.
	if m.Dest != "" && m.Dest != b.cfg.ID {
		if hop, ok := b.cfg.NextHop[m.Dest]; ok {
			m.Hops++
			b.stats.UnicastForwarded++
			b.Send(hop, m)
		}
		return
	}

	c := b.acquire(hookMessage)
	c.from, c.m = from, m
	c.run()
	b.release(c)
}

// dispatch is the broker's default processing, run after the middleware
// chain's interceptors have passed the message through.
func (b *Broker) dispatch(from message.NodeID, m proto.Message) {
	switch m.Kind {
	case proto.KPublish:
		b.handlePublish(from, m)
	case proto.KPublishBatch:
		// Unpack a client's batch frame at the ingress border: each
		// notification is routed exactly like an individual publish, so
		// middleware and overlay semantics are identical — the batch only
		// amortizes the client->border framing.
		for i := range m.Notes {
			one := m
			one.Kind = proto.KPublish
			one.Note = &m.Notes[i]
			one.Notes = nil
			b.handlePublish(from, one)
		}
	case proto.KSubscribe:
		b.handleSubscribe(from, m)
	case proto.KUnsubscribe:
		b.handleUnsubscribe(from, m)
	case proto.KConnect:
		// No session layer claimed the client — the naive baseline of
		// reconnect-and-resubscribe: its static profile is installed
		// afresh (dynamic subscriptions belong to the replicator).
		b.AttachPort(m.Client)
		for _, sub := range m.Subs {
			if !sub.Filter.Dynamic() {
				b.InstallSub(sub, m.Client)
			}
		}
	case proto.KDisconnect:
		// ... and withdrawn on disconnect: what is published meanwhile is
		// lost to the client.
		for _, e := range b.router.Table().ByLink(m.Client) {
			b.RemoveSub(e.Sub.ID)
		}
		b.DetachPort(m.Client)
	case proto.KLinkState:
		b.handleLinkState(from, m)
	case proto.KDeliver:
		// A delivery unicast to this broker for a local client (e.g. a
		// relocation tap forward) that no session layer claimed: deliver
		// if the client is here.
		if m.Note != nil && b.ports[m.Client] {
			b.DeliverMatched(m.Client, *m.Note, m.SubIDs)
		}
	default:
		// Control kinds no stage claimed are dropped.
	}
}

// handlePublish takes one KPublish through the forwarding memory and the
// publish stages to routing. The note keeps the form it arrived in — a
// relay-form note stays encoded — unless a publish stage needs a
// Notification.
func (b *Broker) handlePublish(from message.NodeID, m proto.Message) {
	if m.Note == nil && m.RawNote == nil {
		return
	}
	// On a cyclic graph the same notification can reach a broker more than
	// once (flood copies during a tree transition). The forwarding memory
	// decides before the middleware chain runs, so duplicates are
	// invisible to stages and local ports alike. A forest has no memory.
	var id message.NotificationID
	if b.seen != nil {
		id = noteID(&m)
	}
	if !id.IsZero() {
		if e, seen := b.seen.Find(id); seen {
			// Seen before: a flood copy still spreads to tree links the
			// notification has not traveled; anything else is a loop
			// artifact. Never redelivered — the local delivery decision
			// was made on first sight. Below its publisher's floor the
			// links it traveled are forgotten, so it does not spread.
			switch {
			case e == nil:
				b.NotifyMechanism(MeshBelowFloor, 1)
			case m.Stale:
				b.forwardFlood(e, from, m)
			}
			return
		}
		// Record on first sight. The arrival link is NOT burned into the
		// forwarding memory: per-call exclusion (the from arguments below)
		// already stops echoes, and a promoted flood must stay free to
		// travel back up the arrival path — when a stale route dead-ends
		// at a broker whose only tree link is the one the publish came in
		// on, the bounce is the escape (see routePublishMesh).
		b.remember(id)
	}
	if len(b.publishers) == 0 {
		b.routePublish(from, m)
		return
	}
	// The chain sees (and may mutate) a broker-local copy; forwarded
	// messages carry the mutated copy, queued messages elsewhere don't. A
	// relay-form note is built here and its bytes dropped, so what the
	// stages do to it is what goes on.
	n := b.note(&m)
	m.Note, m.RawNote = &n, nil
	c := b.acquire(hookPublish)
	c.from, c.m, c.note = from, m, &n
	c.run()
	b.release(c)
}

// noteID returns the ID of a publish's note, in whichever form it travels;
// a relay-form ID's Publisher aliases the note's bytes.
func noteID(m *proto.Message) message.NotificationID {
	if m.Note != nil {
		return m.Note.ID
	}
	return codec.ViewNote(m.RawNote).ID()
}

// note returns a publish's note as a Notification: a copy of Note, or one
// built from RawNote.
func (b *Broker) note(m *proto.Message) message.Notification {
	if m.Note != nil {
		return *m.Note
	}
	return codec.ViewNote(m.RawNote).Notification(&b.names)
}

// matchPublish matches a publish against the routing table on the
// attributes of its note, in whichever form it travels. The result is the
// table's scratch (see routePublish).
func (b *Broker) matchPublish(m *proto.Message, from message.NodeID) []routing.LinkMatch {
	if m.Note != nil {
		b.attrs = filter.AppendAttrs(b.attrs[:0], *m.Note)
	} else {
		b.attrs = codec.ViewNote(m.RawNote).AppendAttrs(b.attrs[:0])
	}
	return b.router.Table().MatchByLinkAttrs(b.attrs, from, b.portFilter)
}

// deliverPublish hands a routed publish to the local ports it matched,
// building its Notification once for all of them.
func (b *Broker) deliverPublish(m *proto.Message, deliver []routing.LinkMatch) {
	if len(deliver) == 0 {
		return
	}
	n := b.note(m)
	for _, d := range deliver {
		b.DeliverMatched(d.Link, n, d.Subs)
	}
}

// routePublish is the default publish processing: match, forward, deliver.
// Forwards carry m as it is, so a relay-form note leaves as the bytes it
// arrived as.
//
// The match result is table-owned scratch, valid only while no user code
// runs (a delivery hook may synchronously publish, re-entering this very
// function and recycling the buffer). So the loop over it does transport
// sends only — those never re-enter the broker — and copies the port
// deliveries out (Link and the freshly allocated Subs) before running
// them: local deliveries, and the middleware chain they invoke, happen
// strictly after the scratch is released.
func (b *Broker) routePublish(from message.NodeID, m proto.Message) {
	b.stats.PublishesRouted++

	if b.seen != nil {
		b.routePublishMesh(from, m)
		return
	}

	var buf [4]routing.LinkMatch
	deliver := buf[:0] // on the stack unless more than four ports match
	for _, lm := range b.matchPublish(&m, from) {
		switch {
		case b.peers[lm.Link]:
			fw := m
			fw.Hops++
			b.stats.Forwarded++
			b.Send(lm.Link, fw)
		case b.ports[lm.Link]:
			deliver = append(deliver, lm)
		default:
			// A stale entry for a detached port: skip.
		}
	}
	b.deliverPublish(&m, deliver)
}

// DeliverMatched hands a notification to a local port through the
// middleware chain's OnDeliver hooks; any stage — the session layers' ghost
// buffering, or user middleware — may consume it. subs are the matched
// subscription identities: they travel on the KDeliver so the client routes
// the notification to its per-subscription streams without re-matching
// (nil leaves the client to resolve target streams by filter).
func (b *Broker) DeliverMatched(port message.NodeID, n message.Notification, subs []message.SubID) {
	c := b.acquire(hookDeliver)
	c.from, c.note, c.subs = port, &n, subs
	c.run()
	if !c.delivered {
		b.stats.Intercepted++
	}
	b.release(c)
}

func (b *Broker) handleSubscribe(from message.NodeID, m proto.Message) {
	if m.Sub == nil {
		return
	}
	// Replay guard: a handshake replay (Stale) is a copy of the
	// peer's old state, not a directional claim — the handshake replays
	// BOTH sides' entries across the link, so accepting a cross-link
	// flip from one would just as readily accept the mirror-image flip
	// from the other (each side echoing the sub back toward its stale
	// direction, up to and including stealing the entry off the
	// subscriber's own border). Replays therefore never flip: they only
	// fill entries that are missing outright. Directional repair is the
	// re-anchor wave's job (see reanchor). Nor does a replay over a link
	// outside the tree fill anything: its entry would pass on as a plain
	// subscription that flips the next tree hop's correct entry — and,
	// echoed back, the anchor's own. The link's resync replays again when
	// it enters the tree.
	if m.Stale {
		if e, ok := b.router.Table().Get(m.Sub.ID); (ok && e.Link != from) || !b.peers[from] {
			return
		}
	}
	sub := *m.Sub
	if m.Fresh {
		// Wave dedup and anchor immunity (see reanchor): each (anchor,
		// epoch) wave is processed at most once per broker, so a wave
		// that crosses a transiently cyclic tree dies on its second
		// visit; and a broker holding the entry at a client port IS the
		// anchor — an echo of its own wave (or a rival's) never flips
		// the anchored direction.
		key := string(m.Origin) + "|" + string(sub.ID)
		if m.Epoch <= b.waves[key] {
			return
		}
		b.waves[key] = m.Epoch
		if e, ok := b.router.Table().Get(sub.ID); ok && !b.mesh.IsMember(e.Link) {
			return
		}
	}
	c := b.acquire(hookSubscribe)
	c.from, c.m, c.sub = from, m, &sub
	c.run()
	b.release(c)
}

// installSubscribe is the default subscribe processing, run once the chain
// has passed the subscription on: m is the KSubscribe it arrived in, sub
// the broker-local copy the stages saw.
func (b *Broker) installSubscribe(from message.NodeID, sub *proto.Subscription, m proto.Message) {
	b.stats.SubsProcessed++
	if m.Fresh {
		// Re-anchor wave (see reanchor): the subscriber's border re-issued
		// this subscription after a tree change. Install or flip toward
		// the arrival link — the wave came down the current tree from the
		// anchor, so arrival IS the right direction — then propagate over
		// every other tree link unconditionally, forwarding memory
		// notwithstanding: the point is to revisit brokers that already
		// know the sub but point it the old way. The elected tree is
		// acyclic, so the wave crosses each component exactly once.
		b.router.Subscribe(*sub, from, b.Peers())
		fw := proto.Message{Kind: proto.KSubscribe, Sub: sub, Origin: m.Origin, Epoch: m.Epoch, Fresh: true}
		for p := range b.peers {
			if p != from {
				b.Send(p, fw)
			}
		}
		return
	}
	b.emitForwards(b.router.Subscribe(*sub, from, b.Peers()))
}

func (b *Broker) handleUnsubscribe(from message.NodeID, m proto.Message) {
	if m.Sub == nil {
		return
	}
	// Staleness guard: an unsubscription wave only removes an entry that
	// still points toward the unsubscriber. If the entry has been flipped
	// toward a relocated client in the meantime, the wave is outdated and
	// dies here (the flip wave repairs any removals behind it).
	if e, ok := b.router.Table().Get(m.Sub.ID); ok && e.Link != from {
		return
	}
	b.stats.SubsProcessed++
	b.emitForwards(b.router.Unsubscribe(m.Sub.ID, b.Peers()))
}

// InstallSub enters a subscription on behalf of a local port (used by the
// mobility manager when relocating profiles and by the replicator for
// virtual clients) and propagates it into the overlay.
func (b *Broker) InstallSub(sub proto.Subscription, port message.NodeID) {
	b.stats.SubsProcessed++
	b.emitForwards(b.router.Subscribe(sub, port, b.Peers()))
}

// RemoveSub removes a locally owned subscription and propagates the
// unsubscription. If the entry has already been flipped toward a peer (the
// client relocated and the new border's re-subscription arrived first),
// the removal is skipped: the entry now belongs to the new border.
func (b *Broker) RemoveSub(id message.SubID) {
	if e, ok := b.router.Table().Get(id); ok && b.peers[e.Link] {
		return
	}
	b.stats.SubsProcessed++
	b.emitForwards(b.router.Unsubscribe(id, b.Peers()))
}

// SyncInstalls returns the routing state to replay to a peer on overlay
// link (re-)establishment: every routing-table subscription not learned
// from that peer itself. Together with ApplySyncInstalls on the receiving
// side it makes broker start order irrelevant — installs that were
// forwarded into a down link are re-delivered by the handshake replay.
func (b *Broker) SyncInstalls(peer message.NodeID) (subs []proto.Subscription) {
	for _, e := range b.router.Table().Entries() {
		if e.Link != peer {
			subs = append(subs, e.Sub)
		}
	}
	return subs
}

// ApplySyncInstalls reconciles a peer's handshake replay into local
// routing state. It is a full state transfer for the link: entries
// previously learned from the peer but absent from the replay are
// unsubscribed (propagating the removals — the peer processed an
// unsubscription while the link was down), and every replayed install
// runs through the normal subscribe path, which re-installs
// idempotently (unchanged entries produce no forwards) and propagates
// anything new further into the overlay.
func (b *Broker) ApplySyncInstalls(peer message.NodeID, subs []proto.Subscription) {
	present := make(map[message.SubID]bool, len(subs))
	for _, s := range subs {
		present[s.ID] = true
	}
	for _, e := range b.router.Table().ByLink(peer) {
		if !present[e.Sub.ID] {
			b.stats.SubsProcessed++
			b.emitForwards(b.router.Unsubscribe(e.Sub.ID, b.Peers()))
		}
	}
	// Replays are marked Stale so brokers can tell them from fresh
	// directional claims: a replay flips stale broker-link routes onto the
	// new tree but never steals a port-anchored entry (see handleSubscribe).
	for i := range subs {
		b.HandleMessage(peer, proto.Message{Kind: proto.KSubscribe, Sub: &subs[i], Origin: peer, Stale: true})
	}
}

// emitForwards sends a router call's forwards. The messages share one heap
// copy per subscription: one call reads one table state, so its forwards
// for an ID all carry the same Subscription, and a received Sub is never
// written through.
func (b *Broker) emitForwards(fws []routing.Forward) {
	var buf [4]*proto.Subscription
	copies := buf[:0]
	for _, f := range fws {
		i := slices.IndexFunc(copies, func(s *proto.Subscription) bool { return s.ID == f.Sub.ID })
		if i < 0 {
			s := f.Sub
			i, copies = len(copies), append(copies, &s)
		}
		kind := proto.KSubscribe
		if f.Unsub {
			kind = proto.KUnsubscribe
		}
		b.Send(f.Link, proto.Message{Kind: kind, Sub: copies[i], Origin: b.cfg.ID})
	}
}

// String identifies the broker in logs.
func (b *Broker) String() string {
	return fmt.Sprintf("broker(%s, %d peers, %d ports)", b.cfg.ID, len(b.peers), len(b.ports))
}

func sortNodeIDs(ids []message.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
