package broker

import (
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
)

// Middleware is one stage in a broker's ordered extension chain. A broker
// runs one chain; every stage sees the hook points below in attachment order
// (first attached = outermost). Each hook receives a next func that invokes
// the rest of the chain and, ultimately, the broker's default processing.
// Calling next at most once is enforced (extra calls are no-ops); not
// calling it short-circuits: the event is consumed at this stage and the
// default processing is skipped. next is valid only until the hook returns
// — a stage calls it synchronously or not at all, and must not retain it:
// once the hook has returned the event is settled, and a late call does
// nothing.
//
// Hook points:
//
//   - OnDeliver wraps one local delivery to a client port, after the
//     session layers (mobility manager, replicator) have had the chance to
//     claim it. subs names the subscriptions the notification matched at
//     this broker (empty for session-layer replays, which are resolved
//     client-side). Short-circuiting suppresses the KDeliver send.
//   - OnSubscribe wraps the routing-table installation of a KSubscribe,
//     whether it arrived from a local port or an overlay peer.
//     Short-circuiting rejects the subscription at this broker.
//   - OnPublish, for stages that implement PublishInterceptor, wraps the
//     routing of a KPublish at this broker — both forwarding to peers and
//     local deliveries.
//
// The notification/subscription pointers target broker-local copies: a
// stage may mutate them (e.g. stamp attributes) and the mutation is visible
// to inner stages, to the default processing, and — for OnPublish —
// downstream on forwarded copies, but never to other already-queued
// messages. A broker builds such a copy only where something reads it: a
// publish arriving in the relay form (encoded, proto.Message.RawNote) is
// matched and forwarded as its bytes, and becomes a Notification for a
// local delivery or for a chain with a publish stage. Once built, the
// Notification is what travels on, so a stage's change is never lost.
//
// Middleware runs inside the broker's event loop (the simulator loop or a
// live node's inbox pump): stages must not block, and a stage shared by
// several brokers must be safe for concurrent use when those brokers live
// in different event loops (live TCP nodes).
//
// Optional extension interfaces widen a stage's view: PublishInterceptor
// (publishes), MessageInterceptor (raw messages before kind dispatch),
// LinkObserver (overlay link transitions), DropObserver (abandoned notes)
// and MechanismObserver (the session layers' mechanism events). The
// session layers (core.Replicator, mobility.Manager) are
// stages like any other — they implement these interfaces and are
// attached with UseMiddleware, first, by session.Attach — so there is one
// extension path, on simulated and live brokers alike.
type Middleware interface {
	// OnDeliver wraps a local delivery to a client port. subs carries the
	// matched subscription identities (may be empty).
	OnDeliver(b *Broker, port message.NodeID, n *message.Notification, subs []message.SubID, next func())
	// OnSubscribe wraps installation of a subscription at this broker.
	OnSubscribe(b *Broker, from message.NodeID, sub *proto.Subscription, next func())
}

// PublishInterceptor is an optional Middleware extension: stages that
// implement it wrap the routing of every KPublish at this broker. It runs
// at every broker the notification transits, so per-broker middleware
// observes hop counts; short-circuiting drops the publish at this broker
// (rate limiting). It has a price a stage without it does not pay: every
// publish this broker routes is built into a Notification for it, where a
// broker whose chain has no publish stage forwards the encoded note as it
// came.
type PublishInterceptor interface {
	Middleware
	// OnPublish wraps routing of an incoming publish at this broker.
	OnPublish(b *Broker, from message.NodeID, n *message.Notification, next func())
}

// MessageInterceptor is an optional Middleware extension: stages that
// implement it are offered every incoming message before kind dispatch —
// the hook the session layers (mobility manager, replicator) use to
// consume their control protocols. Short-circuiting consumes the message.
// A KPublish may be in the relay form here: Note nil, the note encoded in
// RawNote (codec.ViewNote reads it).
type MessageInterceptor interface {
	Middleware
	// OnMessage wraps processing of one incoming message.
	OnMessage(b *Broker, from message.NodeID, m proto.Message, next func())
}

// LinkObserver is an optional Middleware extension: stages that implement
// it observe the broker's overlay link transitions (connecting →
// handshaking → established → degraded), as reported by the hosting
// runtime through NotifyLinkChange. Observe-only — there is no next to
// short-circuit; stages must not block (live nodes deliver transitions on
// their event loop).
type LinkObserver interface {
	Middleware
	// OnLinkChange observes one link state transition.
	OnLinkChange(b *Broker, ev overlay.Event)
}

// DropObserver is an optional Middleware extension: stages that implement
// it are told when a notification's normal path is abandoned — the mesh
// router's flood fallback (no tree route survived a topology change, so
// the note was flooded instead of forwarded) and a rate limiter's
// rejection of a client publish. Reason is a short stable tag
// ("flood-fallback", "rate-limited"). Observe-only; stages must not block
// (the hook runs on the broker's event loop).
type DropObserver interface {
	Middleware
	// OnDrop observes one abandoned-path event.
	OnDrop(b *Broker, id message.NotificationID, reason string)
}

// NotifyDrop hands an abandoned-path event to every DropObserver stage on
// the chain, in attachment order. The routing layer and chain stages that
// drop a publish (a rate limiter) call it on the broker's event loop.
func (b *Broker) NotifyDrop(id message.NotificationID, reason string) {
	for _, d := range b.dropObservers {
		d.OnDrop(b, id, reason)
	}
}

// MechanismObserver is an optional Middleware extension: stages that
// implement it are told of the session layers' mechanism events (see
// Mechanism), the one way those layers report — to telemetry and to the
// simulator's MechanismTally alike. Observe-only; stages must not block.
type MechanismObserver interface {
	Middleware
	// OnMechanism observes n occurrences of one mechanism event.
	OnMechanism(b *Broker, ev Mechanism, n int)
}

// NotifyMechanism hands n occurrences of a mechanism event to every
// MechanismObserver stage on the chain, in attachment order. The session
// layers call it on the broker's event loop.
func (b *Broker) NotifyMechanism(ev Mechanism, n int) {
	for _, o := range b.mechObservers {
		o.OnMechanism(b, ev, n)
	}
}

// NotifyLinkChange hands an overlay link transition to every LinkObserver
// stage on the chain, in attachment order. Called by the hosting runtime
// (live node event loop, simulator) — never by the overlay manager
// directly, so observers run with broker state safely accessible.
func (b *Broker) NotifyLinkChange(ev overlay.Event) {
	// The election folds the transition into the link-state map first, so
	// observers see the post-election broker state.
	b.meshLinkChange(ev)
	for _, lo := range b.linkObservers {
		lo.OnLinkChange(b, ev)
	}
}

// PassMiddleware is a no-op Middleware: every hook just calls next. Embed
// it to implement only the hooks a stage cares about. It has no OnPublish:
// a stage that embeds it and defines none is not a publish stage and costs
// publishes nothing.
type PassMiddleware struct{}

// OnDeliver implements Middleware as a pass-through.
func (PassMiddleware) OnDeliver(_ *Broker, _ message.NodeID, _ *message.Notification, _ []message.SubID, next func()) {
	next()
}

// OnSubscribe implements Middleware as a pass-through.
func (PassMiddleware) OnSubscribe(_ *Broker, _ message.NodeID, _ *proto.Subscription, next func()) {
	next()
}

// hookKind names the hook a cursor is walking the chain for.
type hookKind uint8

const (
	hookMessage hookKind = iota
	hookPublish
	hookDeliver
	hookSubscribe
)

// cursor walks one event through the stages of one hook and then into the
// broker's default processing. It carries the hook's arguments itself, and
// the next it hands every stage is its own step method, bound once when the
// cursor is made — so an event costs no closure, whatever the chain's
// length. Cursors are recycled through the broker's free list: a stage that
// publishes from inside a hook re-enters the broker, and that event takes a
// cursor of its own.
//
// next is a once-only capability of the hook it was handed to. armed is set
// exactly while a stage's hook is running and has not called next yet, and
// Broker.hook names the cursor whose hook is the innermost one running. So
// a second call, a call by an outer stage after an inner one declined, a
// call after the event is over, and a call of a retained next from inside
// some other event's hook all do nothing; a retained next called from a
// later hook on the same cursor is that hook's own next, the same func.
type cursor struct {
	b     *Broker
	next  func() // c.step
	kind  hookKind
	i     int // the stage step runs next; len(stages) = default processing
	armed bool

	from      message.NodeID // the sender; the port, for hookDeliver
	m         proto.Message  // hookMessage, hookPublish (m.Note is note), hookSubscribe
	note      *message.Notification
	subs      []message.SubID
	sub       *proto.Subscription
	delivered bool // hookDeliver: the default processing sent the KDeliver
}

// acquire takes a cursor off the free list for one event of the given kind;
// the caller fills in the hook's arguments, calls run and releases it.
func (b *Broker) acquire(kind hookKind) *cursor {
	var c *cursor
	if n := len(b.free); n > 0 {
		c, b.free = b.free[n-1], b.free[:n-1]
	} else {
		c = &cursor{b: b}
		c.next = c.step
	}
	c.kind = kind
	return c
}

// release clears the cursor — it must not pin the event's message — and
// returns it to the free list.
func (b *Broker) release(c *cursor) {
	*c = cursor{b: b, next: c.next}
	b.free = append(b.free, c)
}

// step is the next every stage is handed.
func (c *cursor) step() {
	if c.armed && c.b.hook == c {
		c.run()
	}
}

// run takes the event one step on: into the next stage's hook, or into the
// broker's default processing once every stage has passed it on.
func (c *cursor) run() {
	b, i := c.b, c.i
	c.i++
	c.armed = false
	stages := len(b.chain)
	switch c.kind {
	case hookMessage:
		stages = len(b.interceptors)
	case hookPublish:
		stages = len(b.publishers)
	}
	if i < stages {
		outer := b.hook
		b.hook, c.armed = c, true
		switch c.kind {
		case hookMessage:
			b.interceptors[i].OnMessage(b, c.from, c.m, c.next)
		case hookPublish:
			b.publishers[i].OnPublish(b, c.from, c.note, c.next)
		case hookDeliver:
			b.chain[i].OnDeliver(b, c.from, c.note, c.subs, c.next)
		case hookSubscribe:
			b.chain[i].OnSubscribe(b, c.from, c.sub, c.next)
		}
		b.hook, c.armed = outer, false
		return
	}
	switch c.kind {
	case hookMessage:
		b.dispatch(c.from, c.m)
	case hookPublish:
		b.routePublish(c.from, c.m)
	case hookDeliver:
		c.delivered = true
		b.stats.Delivered++
		b.Send(c.from, proto.Message{Kind: proto.KDeliver, Client: c.from, Note: c.note, SubIDs: c.subs})
	case hookSubscribe:
		b.installSubscribe(c.from, c.sub, c.m)
	}
}
