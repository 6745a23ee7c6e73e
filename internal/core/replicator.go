// Package core implements the paper's contribution (§3): extended logical
// mobility via a replicator layer that copes with movement uncertainty by
// maintaining pre-subscriptions — buffering virtual clients ("information
// shadows") — at every broker in the client's movement-graph neighborhood
// nlb(b).
//
// The Replicator is a border-broker middleware stage, layered transparently
// between virtual clients and the broker (Fig. 4) without changes to the
// routing framework:
//
//   - Client setup (§3.2.1): when a client with location-dependent
//     subscriptions appears at broker b, identical buffering virtual
//     clients are created at every broker in nlb(b). Each resolves the
//     myloc marker against its *own* location scope, so it buffers exactly
//     the information a client arriving there would want.
//   - Client operation (§3.2.2): location-dependent (un)subscriptions are
//     applied locally and propagated to all nlb(b) replicas over direct
//     (out-of-band) replicator links.
//   - Client handover (§3.2.3): on arrival at b2 the local virtual client
//     is activated and its buffer replayed in one KDeliver — the
//     "subscription in the past". The replicator then creates replicas
//     on newset\oldset and garbage-collects oldset\newset, where
//     oldset = nlb(b1), newset = nlb(b2).
//   - Client removal (§3.2.4): the local virtual client and all nlb
//     replicas are deleted.
//   - Neighbor (re)join: when the link to a broker in nlb(b) comes up (it
//     registered late, or restarted without its replicas), every client
//     active at b gets its replica there, as newset\oldset does.
//   - Exception mode (§4): a client popping up at a broker without a
//     replica (movement-graph violation, e.g. power-off travel) gets a
//     virtual client created on the fly; buffered notifications are
//     fetched from the previous broker's replica — degraded, but not
//     empty-handed.
//
// Shared pre-subscriptions: the virtual clients at one broker that hold
// one template resolve it to one filter, so the routing layer holds one
// entry per broker and resolved filter (ID vc:<Filter.Key()>@<broker>),
// installed on the replicator's one port vc:*@<broker> by its first holder
// and removed with its last. A delivery on that port reaches each holder
// of the matched entries once, in holder order; buffers stay per virtual
// client (or digests of buffer.Shared, which shares their storage).
package core

import (
	"fmt"
	"maps"
	"slices"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// virtualClient mirrors one mobile client at this broker. Exactly one
// virtual client per (client, broker); at most one of a client's virtual
// clients is active system-wide.
type virtualClient struct {
	client message.NodeID
	active bool
	// subs holds the client's location-dependent subscriptions in their
	// original (unresolved myloc) form, keyed by the client-issued SubID.
	subs     map[message.SubID]filter.Filter
	subOrder []message.SubID
	// keys names, per SubID, the shared entry its resolved filter holds.
	keys map[message.SubID]message.SubID
	// gen is the fan-out generation that last reached this virtual client.
	gen uint64
	// buf records location-relevant notifications while inactive.
	buf buffer.Policy
}

func (v *virtualClient) addSub(id message.SubID, f filter.Filter) bool {
	if _, ok := v.subs[id]; ok {
		v.subs[id] = f
		return false
	}
	v.subs[id] = f
	v.subOrder = append(v.subOrder, id)
	return true
}

func (v *virtualClient) removeSub(id message.SubID) bool {
	if _, ok := v.subs[id]; !ok {
		return false
	}
	delete(v.subs, id)
	for i, o := range v.subOrder {
		if o == id {
			v.subOrder = append(v.subOrder[:i], v.subOrder[i+1:]...)
			break
		}
	}
	return true
}

func (v *virtualClient) profile() []proto.Subscription {
	out := make([]proto.Subscription, 0, len(v.subOrder))
	for _, id := range v.subOrder {
		out = append(out, proto.Subscription{ID: id, Filter: v.subs[id]})
	}
	return out
}

// Config assembles a Replicator.
type Config struct {
	// Broker is the border broker this replicator serves.
	Broker *broker.Broker
	// NLB returns nlb(b), a broker's movement-graph neighbors. A live broker
	// passes the graph it routes on, which registry snapshots may change; it
	// is read on a location-dependent (un)subscribe, a handover and a link
	// establishment.
	NLB func(message.NodeID) []message.NodeID
	// Locations resolves myloc markers per broker.
	Locations *location.Model
	// Context resolves generalized context markers (§4 "state-dependent
	// subscriptions") per broker. Optional; unresolved markers match
	// nothing.
	Context func(b message.NodeID) filter.ContextResolver
	// BufferFactory builds per-virtual-client buffers (default unbounded).
	// Ignored when Shared is set.
	BufferFactory buffer.Factory
	// Shared, when non-nil, switches virtual clients to digest views over
	// this per-broker shared store (§4's memory optimization, E8). Digests
	// are unbounded: BufferFactory's bounds do not apply to them.
	Shared *buffer.Shared
	// Store, when non-nil, backs every virtual-client buffer with a
	// persistence queue (repl/<broker>/<client>): appends happen when a
	// notification is buffered, acks when its replay or fetch is served —
	// the same append-before-deliver/ack-on-confirm path the mobility
	// manager uses. A virtual client recreated on the same store (a
	// restarted broker re-running the replica protocol) reloads its
	// pending buffer. Ignored when Shared is set (digests hold no
	// notification payloads to persist).
	Store store.Store
	// PreSubscribe enables the pre-subscription mechanism. When false the
	// replicator degrades to the Reactive baseline: location-dependent
	// subscriptions exist only at the client's current broker and are
	// re-resolved on every arrival.
	PreSubscribe bool
}

// Replicator is the per-border-broker replicator process of Fig. 4: a
// stage of the broker's middleware chain that claims location-dependent
// subscriptions and the replica protocol (MessageInterceptor) and the
// deliveries to its virtual clients' port (OnDeliver), and re-creates
// replicas on a neighbor whose link comes up (LinkObserver).
type Replicator struct {
	broker.PassMiddleware
	b   *broker.Broker
	cfg Config
	vcs map[message.NodeID]*virtualClient
	// port is the broker port every shared entry is installed on.
	port message.NodeID
	// entries lists each shared entry's holders by its routing SubID: one
	// element per (virtual client, SubID) whose filter resolves to it, in
	// the order they came.
	entries map[message.SubID][]*virtualClient
	// gen stamps one fan-out, so that a virtual client holding several
	// matched entries is reached once.
	gen uint64
}

// New attaches a replicator to its border broker's middleware chain and
// returns it. It must precede the physical-mobility manager on the chain so
// that it claims location-dependent subscriptions first; session.Attach
// owns that order.
func New(cfg Config) *Replicator {
	if cfg.Broker == nil {
		panic("core: Config.Broker is required")
	}
	if cfg.NLB == nil {
		cfg.NLB = func(message.NodeID) []message.NodeID { return nil }
	}
	if cfg.Locations == nil {
		cfg.Locations = location.NewModel()
	}
	if cfg.BufferFactory == nil {
		cfg.BufferFactory = func() buffer.Policy { return buffer.NewUnbounded() }
	}
	r := &Replicator{
		b:       cfg.Broker,
		cfg:     cfg,
		vcs:     make(map[message.NodeID]*virtualClient),
		port:    "vc:*@" + cfg.Broker.ID(),
		entries: make(map[message.SubID][]*virtualClient),
	}
	cfg.Broker.AttachPort(r.port)
	cfg.Broker.UseMiddleware(r)
	return r
}

// ResidentVirtualClients returns the number of virtual clients currently
// hosted here (the memory/uplink footprint metric of E6).
func (r *Replicator) ResidentVirtualClients() int { return len(r.vcs) }

// BufferedBytes sums the resident buffer memory across virtual clients.
func (r *Replicator) BufferedBytes() int {
	total := 0
	for _, vc := range r.vcs {
		total += vc.buf.Bytes()
	}
	if r.cfg.Shared != nil {
		total += r.cfg.Shared.Bytes()
	}
	return total
}

// HasReplica reports whether a virtual client for c lives here (tests).
func (r *Replicator) HasReplica(c message.NodeID) bool {
	_, ok := r.vcs[c]
	return ok
}

// ReplicaActive reports whether c's virtual client here is active.
func (r *Replicator) ReplicaActive(c message.NodeID) bool {
	vc, ok := r.vcs[c]
	return ok && vc.active
}

// resolve resolves myloc and context markers against this broker.
func (r *Replicator) resolve(f filter.Filter) filter.Filter {
	f = r.cfg.Locations.Resolve(f, r.b.ID())
	if f.ContextDependent() && r.cfg.Context != nil {
		f = f.ResolveContext(r.cfg.Context(r.b.ID()))
	}
	return f
}

func (r *Replicator) newBuffer(c message.NodeID) buffer.Policy {
	if r.cfg.Shared != nil {
		return r.cfg.Shared.NewDigest()
	}
	if r.cfg.Store != nil {
		queue := fmt.Sprintf("repl/%s/%s", r.b.ID(), c)
		return buffer.NewDurable(r.cfg.Store, queue, r.cfg.BufferFactory())
	}
	return r.cfg.BufferFactory()
}

// OnMessage implements broker.MessageInterceptor: location-dependent
// (un)subscriptions and the replicator-to-replicator protocol are consumed
// here; connects and disconnects are observed and passed on — the
// physical-mobility manager also processes them.
func (r *Replicator) OnMessage(_ *broker.Broker, from message.NodeID, m proto.Message, next func()) {
	var consumed bool
	switch m.Kind {
	case proto.KSubscribe:
		consumed = r.onSubscribe(from, m)
	case proto.KUnsubscribe:
		consumed = r.onUnsubscribe(from, m)
	case proto.KConnect:
		r.onConnect(m)
	case proto.KDisconnect:
		r.onDisconnect(m)
	case proto.KReplicaCreate:
		consumed = r.onReplicaCreate(m)
	case proto.KReplicaDelete:
		consumed = r.onReplicaDelete(m)
	case proto.KReplicaSub:
		consumed = r.onReplicaSub(m)
	case proto.KReplicaUnsub:
		consumed = r.onReplicaUnsub(m)
	case proto.KBufferFetch:
		consumed = r.onBufferFetch(m)
	case proto.KBufferFetchReply:
		consumed = r.onBufferFetchReply(m)
	}
	if !consumed {
		next()
	}
}

// OnDeliver implements broker.Middleware: a delivery to the replicator's
// port reaches every holder of the matched entries once, in holder order,
// and is forwarded to the live client or buffered. n is the broker's copy
// for the duration of the hook only; what is kept or forwarded is a copy
// of the value.
func (r *Replicator) OnDeliver(_ *broker.Broker, port message.NodeID, n *message.Notification, subs []message.SubID, next func()) {
	if port != r.port {
		next()
		return
	}
	r.gen++
	for _, id := range subs {
		for _, vc := range r.entries[id] {
			if vc.gen == r.gen {
				continue
			}
			vc.gen = r.gen
			if vc.active {
				note := *n
				r.b.Send(vc.client, proto.Message{Kind: proto.KDeliver, Client: vc.client, Note: &note})
			} else {
				vc.buf.Add(*n, r.b.Now())
				r.b.NotifyMechanism(broker.CoreBuffered, 1)
			}
		}
	}
}

// --- client-facing operations -------------------------------------------

// onSubscribe claims location-dependent subscriptions from local clients
// (§3.2.2). Static subscriptions pass through to the default path.
func (r *Replicator) onSubscribe(from message.NodeID, m proto.Message) bool {
	if m.Sub == nil || !m.Sub.Filter.Dynamic() || !r.b.HasPort(from) {
		return false
	}
	c := from
	vc := r.ensureVC(c, true)
	r.installVCSub(vc, m.Sub.ID, m.Sub.Filter)
	if r.cfg.PreSubscribe {
		for _, nb := range r.cfg.NLB(r.b.ID()) {
			r.b.Direct(nb, proto.Message{
				Kind: proto.KReplicaSub, Client: c, Origin: r.b.ID(), Sub: m.Sub,
			})
		}
	}
	return true
}

func (r *Replicator) onUnsubscribe(from message.NodeID, m proto.Message) bool {
	if m.Sub == nil || !m.Sub.Filter.Dynamic() {
		return false
	}
	vc, ok := r.vcs[from]
	if !ok {
		return false
	}
	r.removeVCSub(vc, m.Sub.ID)
	if r.cfg.PreSubscribe {
		for _, nb := range r.cfg.NLB(r.b.ID()) {
			r.b.Direct(nb, proto.Message{
				Kind: proto.KReplicaUnsub, Client: from, Origin: r.b.ID(), Sub: m.Sub,
			})
		}
	}
	return true
}

// installVCSub adds a subscription to a virtual client and makes it a
// holder of the shared entry for its resolved filter, installing the entry
// in the routing layer for its first holder. A re-issued SubID whose
// filter resolves elsewhere moves its holder to the new entry.
func (r *Replicator) installVCSub(vc *virtualClient, id message.SubID, f filter.Filter) {
	vc.addSub(id, f)
	resolved := r.resolve(f)
	key := message.SubID("vc:" + resolved.Key() + "@" + string(r.b.ID()))
	old, held := vc.keys[id]
	if held && old == key {
		return
	}
	holders, ok := r.entries[key]
	if !ok {
		r.b.InstallSub(proto.Subscription{ID: key, Filter: resolved}, r.port)
	}
	r.entries[key] = append(holders, vc)
	vc.keys[id] = key
	if held {
		r.release(vc, old)
	}
}

func (r *Replicator) removeVCSub(vc *virtualClient, id message.SubID) {
	if !vc.removeSub(id) {
		return
	}
	r.release(vc, vc.keys[id])
	delete(vc.keys, id)
}

// release drops one of vc's holds on the shared entry key and removes the
// entry from the routing layer with its last holder.
func (r *Replicator) release(vc *virtualClient, key message.SubID) {
	holders := r.entries[key]
	i := slices.Index(holders, vc)
	if holders = slices.Delete(holders, i, i+1); len(holders) > 0 {
		r.entries[key] = holders
		return
	}
	delete(r.entries, key)
	r.b.RemoveSub(key)
}

// ensureVC returns the client's virtual client here, creating it if needed.
func (r *Replicator) ensureVC(c message.NodeID, active bool) *virtualClient {
	vc, ok := r.vcs[c]
	if !ok {
		vc = &virtualClient{
			client: c,
			subs:   make(map[message.SubID]filter.Filter),
			keys:   make(map[message.SubID]message.SubID),
			buf:    r.newBuffer(c),
		}
		r.vcs[c] = vc
		r.b.NotifyMechanism(broker.CoreReplicasCreated, 1)
	}
	vc.active = vc.active || active
	return vc
}

// --- handover (§3.2.3) ----------------------------------------------------

func (r *Replicator) onConnect(m proto.Message) {
	c, prev := m.Client, m.Origin
	vc, warm := r.vcs[c]
	if warm {
		r.b.NotifyMechanism(broker.CoreActivations, 1)
		vc.active = true
		r.replay(vc)
	} else {
		// Exception mode (§4): create on the fly from the client's
		// announced profile and fetch buffered history from the previous
		// broker's replica.
		locSubs := locationDependent(m.Subs)
		if len(locSubs) == 0 {
			return // nothing location-dependent: not our concern
		}
		r.b.NotifyMechanism(broker.CoreExceptionActivations, 1)
		vc = r.ensureVC(c, true)
		for _, s := range locSubs {
			r.installVCSub(vc, s.ID, s.Filter)
		}
		if r.cfg.PreSubscribe && prev != "" && prev != r.b.ID() {
			r.b.Direct(prev, proto.Message{
				Kind: proto.KBufferFetch, Client: c, Origin: r.b.ID(),
			})
		}
	}
	if r.cfg.PreSubscribe {
		r.rebalance(c, vc, prev)
	}
}

// rebalance creates replicas on newset\oldset and deletes them on
// oldset\newset (§3.2.3), extended to garbage-collect the previous broker
// itself after a movement-graph violation.
func (r *Replicator) rebalance(c message.NodeID, vc *virtualClient, prev message.NodeID) {
	here := r.b.ID()
	newset := toSet(r.cfg.NLB(here))
	oldset := make(map[message.NodeID]bool)
	if prev != "" && prev != here {
		oldset = toSet(r.cfg.NLB(prev))
		// The previous broker hosted the formerly active virtual client;
		// include it in the old coverage so it is GCed when the movement
		// graph was violated (it survives normal moves: prev ∈ nlb(here)).
		oldset[prev] = true
	}
	profile := vc.profile()
	for _, nb := range slices.Sorted(maps.Keys(newset)) {
		if nb == here || oldset[nb] {
			continue
		}
		r.b.Direct(nb, proto.Message{
			Kind: proto.KReplicaCreate, Client: c, Origin: here, Subs: profile,
		})
	}
	for _, ob := range slices.Sorted(maps.Keys(oldset)) {
		if ob == here || newset[ob] {
			continue
		}
		r.b.Direct(ob, proto.Message{
			Kind: proto.KReplicaDelete, Client: c, Origin: here,
		})
	}
}

// OnLinkChange implements broker.LinkObserver: a link that comes up to a
// broker in nlb(here) gets a replica of every client active here, as
// rebalance sends to newset\oldset. onReplicaCreate installs only what a
// replica lacks, so one that survived the outage is left as it is.
func (r *Replicator) OnLinkChange(_ *broker.Broker, ev overlay.Event) {
	if !r.cfg.PreSubscribe || ev.To != overlay.StateEstablished || !slices.Contains(r.cfg.NLB(r.b.ID()), ev.Peer) {
		return
	}
	for _, c := range slices.Sorted(maps.Keys(r.vcs)) {
		if vc := r.vcs[c]; vc.active {
			r.b.Direct(ev.Peer, proto.Message{
				Kind: proto.KReplicaCreate, Client: c, Origin: r.b.ID(), Subs: vc.profile(),
			})
		}
	}
}

func (r *Replicator) onDisconnect(m proto.Message) {
	vc, ok := r.vcs[m.Client]
	if !ok {
		return
	}
	if !r.cfg.PreSubscribe {
		// Reactive baseline: no shadow stays behind; the subscriptions
		// are torn down and re-issued wherever the client reappears.
		r.dropVC(m.Client)
		return
	}
	vc.active = false
}

// replay delivers a virtual client's buffer to the (now local) client in
// one KDeliver: the "listen for a while" semantics of §1.
func (r *Replicator) replay(vc *virtualClient) {
	r.deliverBatch(vc.client, vc.buf.Snapshot(r.b.Now()))
	// For a store-backed buffer the Clear acks the queue — only after the
	// replay has been handed to the transport.
	vc.buf.Clear()
}

// deliverBatch replays notes to client c as one KDeliver whose Notes are
// in (publisher, seq) order; an empty replay sends nothing.
func (r *Replicator) deliverBatch(c message.NodeID, notes []message.Notification) {
	message.ByID(notes)
	r.b.NotifyMechanism(broker.CoreReplayed, len(notes))
	if len(notes) > 0 {
		r.b.Send(c, proto.Message{Kind: proto.KDeliver, Client: c, Notes: notes})
	}
}

// Remove implements client removal (§3.2.4): delete the local virtual
// client and garbage-collect all replicas in nlb(here).
func (r *Replicator) Remove(c message.NodeID) {
	r.dropVC(c)
	if r.cfg.PreSubscribe {
		for _, nb := range r.cfg.NLB(r.b.ID()) {
			r.b.Direct(nb, proto.Message{
				Kind: proto.KReplicaDelete, Client: c, Origin: r.b.ID(),
			})
		}
	}
}

func (r *Replicator) dropVC(c message.NodeID) {
	vc, ok := r.vcs[c]
	if !ok {
		return
	}
	r.b.NotifyMechanism(broker.CoreWasted, vc.buf.Len())
	vc.buf.Clear()
	for _, id := range vc.subOrder {
		r.release(vc, vc.keys[id])
	}
	delete(r.vcs, c)
	r.b.NotifyMechanism(broker.CoreReplicasDeleted, 1)
}

// --- replicator-to-replicator protocol ------------------------------------

func (r *Replicator) onReplicaCreate(m proto.Message) bool {
	vc := r.ensureVC(m.Client, false)
	for _, s := range m.Subs {
		if _, ok := vc.subs[s.ID]; !ok {
			r.installVCSub(vc, s.ID, s.Filter)
		}
	}
	return true
}

func (r *Replicator) onReplicaDelete(m proto.Message) bool {
	if vc, ok := r.vcs[m.Client]; ok && vc.active {
		// Never GC the active virtual client (stale delete after a fast
		// return move).
		return true
	}
	r.dropVC(m.Client)
	return true
}

// onReplicaSub applies a subscription the client issued at its border,
// re-issues included: a SubID the replica holds takes the new filter.
func (r *Replicator) onReplicaSub(m proto.Message) bool {
	if m.Sub == nil {
		return true
	}
	r.installVCSub(r.ensureVC(m.Client, false), m.Sub.ID, m.Sub.Filter)
	return true
}

func (r *Replicator) onReplicaUnsub(m proto.Message) bool {
	if m.Sub == nil {
		return true
	}
	if vc, ok := r.vcs[m.Client]; ok {
		r.removeVCSub(vc, m.Sub.ID)
	}
	return true
}

func (r *Replicator) onBufferFetch(m proto.Message) bool {
	vc, ok := r.vcs[m.Client]
	if !ok {
		return true
	}
	notes := vc.buf.Snapshot(r.b.Now())
	r.b.NotifyMechanism(broker.CoreFetchesServed, 1)
	r.b.Direct(m.Origin, proto.Message{
		Kind: proto.KBufferFetchReply, Client: m.Client, Origin: r.b.ID(),
		Notes: notes,
	})
	vc.buf.Clear()
	return true
}

func (r *Replicator) onBufferFetchReply(m proto.Message) bool {
	vc, ok := r.vcs[m.Client]
	if !ok {
		return true
	}
	if vc.active {
		r.deliverBatch(m.Client, m.Notes)
		return true
	}
	now := r.b.Now()
	for _, n := range m.Notes {
		vc.buf.Add(n, now)
	}
	r.b.NotifyMechanism(broker.CoreBuffered, len(m.Notes))
	return true
}

// --- helpers ---------------------------------------------------------

func locationDependent(subs []proto.Subscription) []proto.Subscription {
	var out []proto.Subscription
	for _, s := range subs {
		if s.Filter.Dynamic() {
			out = append(out, s)
		}
	}
	return out
}

func toSet(ids []message.NodeID) map[message.NodeID]bool {
	out := make(map[message.NodeID]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

var _ broker.MessageInterceptor = (*Replicator)(nil)
var _ broker.LinkObserver = (*Replicator)(nil)
