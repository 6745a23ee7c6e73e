// Package sim provides the evaluation substrate: a deterministic
// discrete-event simulator for broker overlays, mobile clients and
// publishers, with per-link FIFO delivery, configurable latency and fault
// injection, traffic accounting, and the scenario driver + delivery oracle
// behind the experiment tables E1–E10.
package sim

import (
	"time"

	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Endpoint consumes messages delivered by the network.
type Endpoint interface {
	Receive(from message.NodeID, m proto.Message)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(from message.NodeID, m proto.Message)

// Receive implements Endpoint.
func (f EndpointFunc) Receive(from message.NodeID, m proto.Message) { f(from, m) }

// event is a scheduled action in virtual time, held in the network's slot
// slice. A message event names its link and carries the message by value
// (fn is nil); any other event runs fn. Background events (overlay
// heartbeats, redial timers) do not keep Run alive and may be cancelled.
// A slot is zeroed when its event fires, so it retains nothing, and is
// then reused.
type event struct {
	fn        func()
	from, to  message.NodeID
	m         proto.Message
	seq       uint64 // the owning entry's seq: a cancel for a reused slot is stale
	bg        bool
	cancelled bool
}

// entry orders one slot in the event heap: by virtual time (nanoseconds
// since the network's epoch), then by seq — schedule order, which breaks
// timestamp ties and keeps runs deterministic. seq is unique, so (at, seq)
// is a total order and the pop sequence does not depend on heap layout.
type entry struct {
	at   int64
	seq  uint64
	slot int32
}

func (e entry) before(o entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap of entries.
type eventHeap []entry

func (h *eventHeap) push(e entry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() entry {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		m := l
		if r := l + 1; r < len(q) && q[r].before(q[l]) {
			m = r
		}
		if !q[m].before(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// TrafficStats accounts every message the network carried.
type TrafficStats struct {
	// ByKind counts messages per kind.
	ByKind map[proto.Kind]int
	// Bytes sums approximate wire sizes.
	Bytes int
	// ControlMsgs counts mobility/replication control traffic.
	ControlMsgs int
	// DataMsgs counts pub/sub data-plane traffic.
	DataMsgs int
	// DirectMsgs counts out-of-band (replicator) messages. They are a
	// subset of ControlMsgs + DataMsgs, already counted there.
	DirectMsgs int
	// Dropped counts messages removed by fault injection.
	Dropped int
}

func newTrafficStats() *TrafficStats {
	return &TrafficStats{ByKind: make(map[proto.Kind]int)}
}

func (s *TrafficStats) record(m proto.Message, direct bool) {
	s.ByKind[m.Kind]++
	s.Bytes += m.WireSize()
	if m.Kind.Control() {
		s.ControlMsgs++
	} else {
		s.DataMsgs++
	}
	if direct {
		s.DirectMsgs++
	}
}

// Total returns the total number of messages carried.
func (s *TrafficStats) Total() int { return s.ControlMsgs + s.DataMsgs }

// linkKey identifies a directed link for FIFO clamping.
type linkKey struct{ from, to message.NodeID }

// Network is the discrete-event message fabric. All methods must be called
// from a single goroutine (the simulation driver).
//
// The event loop is a binary heap of small (time, seq, slot) entries over a
// slot slice recycled through a free list: a message in flight is a slot
// holding its link and the message, not a closure, so sending and
// delivering allocate nothing once the slices have grown.
type Network struct {
	clock     int64 // the virtual time, in nanoseconds since epoch
	seq       uint64
	queue     eventHeap
	slots     []event
	free      []int32
	fgPending int // non-background events in the queue

	nodes map[message.NodeID]Endpoint
	cuts  map[linkKey]bool // severed links (overlay chaos)

	// Latency returns the one-hop delay between two linked nodes.
	Latency func(from, to message.NodeID) time.Duration
	// DirectLatency returns the out-of-band (underlay) delay; defaults to
	// Latency when nil.
	DirectLatency func(from, to message.NodeID) time.Duration
	// Drop, when set, discards matching messages (fault injection).
	Drop func(from, to message.NodeID, m proto.Message) bool

	lastDelivery map[linkKey]int64
	stats        *TrafficStats

	// Trace, when set, observes every delivery (debugging).
	Trace func(at time.Time, from, to message.NodeID, m proto.Message)
}

// DefaultLatency is used when no latency function is configured.
const DefaultLatency = time.Millisecond

// epoch is every network's virtual time zero.
var epoch = time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)

// NewNetwork returns an empty network starting at a fixed epoch.
func NewNetwork() *Network {
	return &Network{
		nodes:        make(map[message.NodeID]Endpoint),
		cuts:         make(map[linkKey]bool),
		lastDelivery: make(map[linkKey]int64),
		stats:        newTrafficStats(),
	}
}

// CutLink severs the (undirected) link between two nodes: transmissions in
// either direction are dropped — and counted — until HealLink. Messages
// already in flight still deliver (they left before the cut), mirroring a
// TCP link whose buffered segments land before the reset.
func (n *Network) CutLink(a, b message.NodeID) {
	n.cuts[linkKey{from: a, to: b}] = true
	n.cuts[linkKey{from: b, to: a}] = true
}

// HealLink restores a severed link.
func (n *Network) HealLink(a, b message.NodeID) {
	delete(n.cuts, linkKey{from: a, to: b})
	delete(n.cuts, linkKey{from: b, to: a})
}

// Linked reports whether the a→b link is intact (not cut).
func (n *Network) Linked(a, b message.NodeID) bool {
	return !n.cuts[linkKey{from: a, to: b}]
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return epoch.Add(time.Duration(n.clock)) }

// Stats returns the network's traffic counters.
func (n *Network) Stats() *TrafficStats { return n.stats }

// AddNode registers an endpoint.
func (n *Network) AddNode(id message.NodeID, e Endpoint) { n.nodes[id] = e }

// Node returns a registered endpoint.
func (n *Network) Node(id message.NodeID) (Endpoint, bool) {
	e, ok := n.nodes[id]
	return e, ok
}

func (n *Network) latency(from, to message.NodeID) time.Duration {
	if n.Latency != nil {
		return n.Latency(from, to)
	}
	return DefaultLatency
}

func (n *Network) directLatency(from, to message.NodeID) time.Duration {
	if n.DirectLatency != nil {
		return n.DirectLatency(from, to)
	}
	return n.latency(from, to)
}

// Send schedules delivery of m from one node to a linked node, preserving
// per-directed-link FIFO order even under jittered latencies.
func (n *Network) Send(from, to message.NodeID, m proto.Message) {
	n.transmit(from, to, m, false)
}

// SendDirect schedules an out-of-band delivery (the replicator's direct
// TCP connections): it bypasses the overlay but still preserves pairwise
// FIFO order.
func (n *Network) SendDirect(from, to message.NodeID, m proto.Message) {
	n.transmit(from, to, m, true)
}

func (n *Network) transmit(from, to message.NodeID, m proto.Message, direct bool) {
	if n.cuts[linkKey{from: from, to: to}] {
		n.stats.Dropped++
		return
	}
	if n.Drop != nil && n.Drop(from, to, m) {
		n.stats.Dropped++
		return
	}
	n.stats.record(m, direct)
	lat := n.latency(from, to)
	if direct {
		lat = n.directLatency(from, to)
	}
	at := n.clock + int64(lat)
	key := linkKey{from: from, to: to}
	if last, ok := n.lastDelivery[key]; ok && at < last {
		at = last // FIFO clamp
	}
	n.lastDelivery[key] = at
	e := &n.slots[n.schedule(at, false)]
	e.from, e.to, e.m = from, to, m
}

// deliver hands a message event to its destination endpoint, if any.
func (n *Network) deliver(from, to message.NodeID, m proto.Message) {
	e, ok := n.nodes[to]
	if !ok {
		return
	}
	if n.Trace != nil {
		n.Trace(n.Now(), from, to, m)
	}
	m.From = from
	e.Receive(from, m)
}

// At schedules fn at the given virtual time (or now, if in the past).
func (n *Network) At(t time.Time, fn func()) {
	n.slots[n.schedule(max(sinceEpoch(t), n.clock), false)].fn = fn
}

// After schedules fn after a virtual delay.
func (n *Network) After(d time.Duration, fn func()) {
	n.slots[n.schedule(n.clock+int64(d), false)].fn = fn
}

// sinceEpoch converts a virtual time to the event heap's clock.
func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) }

// Background schedules fn after a virtual delay as a background event:
// it fires during RunUntil/RunFor windows that reach it, but does not
// keep Run alive — Run drains to quiescence of *foreground* activity
// (messages, scheduled scenario actions) and leaves future background
// timers (overlay heartbeats, redial backoff) unfired, exactly like a
// settled deployment whose next heartbeat has not come due yet. The
// returned cancel func unarms the timer.
func (n *Network) Background(d time.Duration, fn func()) (cancel func()) {
	slot := n.schedule(n.clock+int64(d), true)
	n.slots[slot].fn = fn
	seq := n.seq
	return func() {
		if e := &n.slots[slot]; e.seq == seq {
			e.cancelled = true
		}
	}
}

// schedule queues an event at virtual time at (nanoseconds since epoch)
// and returns its slot for the caller to fill in.
func (n *Network) schedule(at int64, bg bool) int32 {
	n.seq++
	if !bg {
		n.fgPending++
	}
	var slot int32
	if k := len(n.free); k > 0 {
		slot = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		slot = int32(len(n.slots))
		n.slots = append(n.slots, event{})
	}
	n.slots[slot].seq, n.slots[slot].bg = n.seq, bg
	n.queue.push(entry{at: at, seq: n.seq, slot: slot})
	return slot
}

// Run drains the event queue to foreground quiescence and returns the
// final time. Background timers due before the last foreground event run
// in order; later ones stay armed.
func (n *Network) Run() time.Time {
	for n.fgPending > 0 {
		n.step()
	}
	return n.Now()
}

// RunUntil processes events (foreground and background) up to and
// including t, then sets the clock to t. Events scheduled later stay
// queued.
func (n *Network) RunUntil(t time.Time) {
	until := sinceEpoch(t)
	for len(n.queue) > 0 && n.queue[0].at <= until {
		n.step()
	}
	n.clock = max(n.clock, until)
}

// RunFor advances the clock by d, processing due events.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.Now().Add(d)) }

// Pending returns the number of queued foreground events.
func (n *Network) Pending() int { return n.fgPending }

// step fires the earliest event. Its slot is copied out and freed first,
// so the event may schedule others (and reuse the slot) while it runs.
func (n *Network) step() {
	top := n.queue.pop()
	e := n.slots[top.slot]
	n.slots[top.slot] = event{}
	n.free = append(n.free, top.slot)
	if !e.bg {
		n.fgPending--
	}
	if e.cancelled {
		return // unarmed timer: don't advance the clock for it
	}
	n.clock = max(n.clock, top.at)
	if e.fn != nil {
		e.fn()
		return
	}
	n.deliver(e.from, e.to, e.m)
}
