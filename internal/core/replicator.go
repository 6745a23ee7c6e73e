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
//     is activated and its buffer replayed — the "subscription in the
//     past". The replicator then creates replicas on newset\oldset and
//     garbage-collects oldset\newset, where oldset = nlb(b1),
//     newset = nlb(b2).
//   - Client removal (§3.2.4): the local virtual client and all nlb
//     replicas are deleted.
//   - Exception mode (§4): a client popping up at a broker without a
//     replica (movement-graph violation, e.g. power-off travel) gets a
//     virtual client created on the fly; buffered notifications are
//     fetched from the previous broker's replica — degraded, but not
//     empty-handed.
package core

import (
	"fmt"
	"sort"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// Stats counts replicator activity for the experiments.
type Stats struct {
	// ReplicasCreated counts virtual clients created at this broker.
	ReplicasCreated int
	// ReplicasDeleted counts garbage-collected virtual clients.
	ReplicasDeleted int
	// Buffered counts notifications buffered by inactive virtual clients.
	Buffered int
	// Replayed counts buffered notifications replayed on activation.
	Replayed int
	// Wasted counts notifications still buffered when their virtual
	// client was garbage-collected — pre-subscription traffic the client
	// never consumed (the bandwidth cost §4 warns about).
	Wasted int
	// Activations counts handovers that found a warm replica here.
	Activations int
	// ExceptionActivations counts handovers that needed on-the-fly
	// creation (no replica present).
	ExceptionActivations int
	// FetchesServed counts remote buffer fetches answered.
	FetchesServed int
}

// virtualClient mirrors one mobile client at this broker. Exactly one
// virtual client per (client, broker); at most one of a client's virtual
// clients is active system-wide.
type virtualClient struct {
	client message.NodeID
	// port names the broker port this virtual client owns.
	port   message.NodeID
	active bool
	// subs holds the client's location-dependent subscriptions in their
	// original (unresolved myloc) form, keyed by the client-issued SubID.
	subs     map[message.SubID]filter.Filter
	subOrder []message.SubID
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
	// NLB is the movement graph's next-local-broker function.
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
// deliveries to its virtual clients' ports (OnDeliver).
type Replicator struct {
	broker.PassMiddleware
	b   *broker.Broker
	cfg Config
	vcs map[message.NodeID]*virtualClient
	// byPort indexes vcs by the port each virtual client owns; ensureVC
	// and dropVC maintain both maps together.
	byPort map[message.NodeID]*virtualClient
	stats  Stats
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
		b:      cfg.Broker,
		cfg:    cfg,
		vcs:    make(map[message.NodeID]*virtualClient),
		byPort: make(map[message.NodeID]*virtualClient),
	}
	cfg.Broker.UseMiddleware(r)
	return r
}

// Stats returns a copy of the replicator's counters.
func (r *Replicator) Stats() Stats { return r.stats }

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

// vcPort names the local broker port owned by c's virtual client.
func (r *Replicator) vcPort(c message.NodeID) message.NodeID {
	return "vc:" + c + "@" + r.b.ID()
}

// vcSubID derives the broker-unique routing SubID for a client sub.
func (r *Replicator) vcSubID(id message.SubID) message.SubID {
	return id + "@" + message.SubID(r.b.ID())
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

// OnDeliver implements broker.Middleware: deliveries to virtual-client
// ports are forwarded to the live client or buffered. n is the broker's
// copy for the duration of the hook only; what is kept or forwarded is a
// copy of the value.
func (r *Replicator) OnDeliver(_ *broker.Broker, port message.NodeID, n *message.Notification, _ []message.SubID, next func()) {
	vc, ok := r.byPort[port]
	if !ok {
		next()
		return
	}
	if vc.active {
		note := *n
		r.b.Send(vc.client, proto.Message{Kind: proto.KDeliver, Client: vc.client, Note: &note})
	} else {
		vc.buf.Add(*n, r.b.Now())
		r.stats.Buffered++
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

// installVCSub adds a subscription to a virtual client and enters its
// resolved form into the routing layer.
func (r *Replicator) installVCSub(vc *virtualClient, id message.SubID, f filter.Filter) {
	vc.addSub(id, f)
	r.b.AttachPort(vc.port)
	r.b.InstallSub(proto.Subscription{
		ID:     r.vcSubID(id),
		Filter: r.resolve(f),
	}, vc.port)
}

func (r *Replicator) removeVCSub(vc *virtualClient, id message.SubID) {
	if !vc.removeSub(id) {
		return
	}
	r.b.RemoveSub(r.vcSubID(id))
}

// ensureVC returns the client's virtual client here, creating it if needed.
func (r *Replicator) ensureVC(c message.NodeID, active bool) *virtualClient {
	vc, ok := r.vcs[c]
	if !ok {
		vc = &virtualClient{
			client: c,
			port:   r.vcPort(c),
			subs:   make(map[message.SubID]filter.Filter),
			buf:    r.newBuffer(c),
		}
		r.vcs[c] = vc
		r.byPort[vc.port] = vc
		r.stats.ReplicasCreated++
	}
	vc.active = vc.active || active
	return vc
}

// --- handover (§3.2.3) ----------------------------------------------------

func (r *Replicator) onConnect(m proto.Message) {
	c, prev := m.Client, m.Origin
	vc, warm := r.vcs[c]
	if warm {
		r.stats.Activations++
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
		r.stats.ExceptionActivations++
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
	for _, nb := range sortedKeys(newset) {
		if nb == here || oldset[nb] {
			continue
		}
		r.b.Direct(nb, proto.Message{
			Kind: proto.KReplicaCreate, Client: c, Origin: here, Subs: profile,
		})
	}
	for _, ob := range sortedKeys(oldset) {
		if ob == here || newset[ob] {
			continue
		}
		r.b.Direct(ob, proto.Message{
			Kind: proto.KReplicaDelete, Client: c, Origin: here,
		})
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
// (publisher, seq) order: the "listen for a while" semantics of §1.
func (r *Replicator) replay(vc *virtualClient) {
	notes := vc.buf.Snapshot(r.b.Now())
	message.ByID(notes)
	for _, n := range notes {
		note := n
		r.stats.Replayed++
		r.b.Send(vc.client, proto.Message{Kind: proto.KDeliver, Client: vc.client, Note: &note})
	}
	// For a store-backed buffer the Clear acks the queue — only after the
	// replay has been handed to the transport.
	vc.buf.Clear()
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
	r.stats.Wasted += vc.buf.Len()
	vc.buf.Clear()
	for _, id := range append([]message.SubID(nil), vc.subOrder...) {
		r.b.RemoveSub(r.vcSubID(id))
	}
	r.b.DetachPort(vc.port)
	delete(r.vcs, c)
	delete(r.byPort, vc.port)
	r.stats.ReplicasDeleted++
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

func (r *Replicator) onReplicaSub(m proto.Message) bool {
	if m.Sub == nil {
		return true
	}
	vc := r.ensureVC(m.Client, false)
	if _, ok := vc.subs[m.Sub.ID]; !ok {
		r.installVCSub(vc, m.Sub.ID, m.Sub.Filter)
	}
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
	r.stats.FetchesServed++
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
		message.ByID(m.Notes)
		for _, n := range m.Notes {
			note := n
			r.stats.Replayed++
			r.b.Send(m.Client, proto.Message{Kind: proto.KDeliver, Client: m.Client, Note: &note})
		}
		return true
	}
	now := r.b.Now()
	for _, n := range m.Notes {
		vc.buf.Add(n, now)
		r.stats.Buffered++
	}
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

func sortedKeys(m map[message.NodeID]bool) []message.NodeID {
	out := make([]message.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var _ broker.MessageInterceptor = (*Replicator)(nil)
