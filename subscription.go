package rebeca

import (
	"sync"
	"sync/atomic"
)

// OverflowPolicy decides what happens when a subscription's bounded event
// stream is full and a new delivery arrives.
type OverflowPolicy int

const (
	// DropOldest evicts the oldest buffered delivery to make room — the
	// stream always holds the freshest events (default).
	DropOldest OverflowPolicy = iota
	// DropNewest discards the incoming delivery — the stream preserves
	// the oldest unconsumed events.
	DropNewest
	// Block makes the delivering goroutine wait for the consumer. Under
	// Live the wait propagates as flow control: the client's delivery
	// pump stops granting credits, the border broker's event loop stalls
	// on the exhausted window, and TCP backpressure walks the overlay
	// back to the publisher. Block therefore requires a concurrently
	// running consumer — under System, where deliveries happen inside
	// Settle, a Block stream nobody ranges deadlocks the virtual clock.
	Block
)

// String names the policy.
func (p OverflowPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	case Block:
		return "block"
	default:
		return "overflow-policy(?)"
	}
}

// DefaultStreamBuffer is the per-subscription event buffer capacity when
// WithStreamBuffer is not given.
const DefaultStreamBuffer = 256

// catchAllBuffer is the capacity of a Port's catch-all stream (Events /
// OnNotify). The catch-all is always DropOldest so an ignored stream can
// never leak or stall.
const catchAllBuffer = 1024

// subConfig collects per-subscription options.
type subConfig struct {
	buffer  int
	policy  OverflowPolicy
	durable string
}

// SubOption configures one subscription created by Port.Subscribe.
type SubOption func(*subConfig)

// WithStreamBuffer sets the subscription's event buffer capacity
// (default DefaultStreamBuffer; values below 1 are raised to 1).
func WithStreamBuffer(n int) SubOption {
	return func(c *subConfig) {
		if n < 1 {
			n = 1
		}
		c.buffer = n
	}
}

// WithOverflow sets the subscription's overflow policy (default
// DropOldest).
func WithOverflow(p OverflowPolicy) SubOption {
	return func(c *subConfig) { c.policy = p }
}

// Durable gives the subscription a stable, named identity: its SubID is
// derived from the client ID and name ("<client>/d:<name>") instead of a
// per-process counter, so a client recreated after a process restart mints
// the same ID and reattaches to the broker-side state — the durable queue
// a WithDurable deployment kept feeding while the client was away. On a
// deployment without a store the option still pins the ID but nothing
// survives a broker restart. Cancel releases the broker-side queue
// (ack-all + compact) once the cancellation reaches the border.
func Durable(name string) SubOption {
	return func(c *subConfig) { c.durable = name }
}

// SubscriptionStats snapshots one subscription's delivery accounting.
type SubscriptionStats struct {
	// Delivered counts deliveries accepted into the stream.
	Delivered uint64
	// Dropped counts deliveries discarded by the overflow policy.
	Dropped uint64
	// Buffered is the number of deliveries currently waiting in the
	// stream.
	Buffered int
}

// Subscription is a first-class handle on one registered interest: it owns
// a bounded event stream (Events), its overflow policy, and its lifecycle
// (Cancel). Handles are returned by Port.Subscribe/SubscribeAt; the
// deprecated SubID-keyed surface is gone (see CHANGES.md for the
// migration table).
//
// The stream is a plain receive channel: range over it from any goroutine.
// Cancel closes the stream after withdrawing the subscription, so a range
// loop drains the remaining buffered deliveries and then terminates.
type Subscription struct {
	id     SubID
	filter Filter
	policy OverflowPolicy
	ch     chan Delivery

	// unsub withdraws the subscription at the owning port (nil for a
	// port's catch-all stream).
	unsub func(*Subscription)

	// pushMu serializes stream sends with the Cancel-time close.
	pushMu    sync.Mutex
	done      atomic.Bool
	cancelled chan struct{}
	once      sync.Once

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

func newSubscription(id SubID, f Filter, cfg subConfig, unsub func(*Subscription)) *Subscription {
	if cfg.buffer < 1 {
		cfg.buffer = DefaultStreamBuffer
	}
	return &Subscription{
		id:        id,
		filter:    f,
		policy:    cfg.policy,
		ch:        make(chan Delivery, cfg.buffer),
		unsub:     unsub,
		cancelled: make(chan struct{}),
	}
}

// ID returns the subscription's end-to-end identity (the ID carried in
// routing tables and roaming profiles).
func (s *Subscription) ID() SubID { return s.id }

// Filter returns the subscribed filter.
func (s *Subscription) Filter() Filter { return s.filter }

// Events returns the subscription's delivery stream. The channel is
// closed by Cancel; buffered deliveries remain readable after the close.
func (s *Subscription) Events() <-chan Delivery { return s.ch }

// Stats snapshots the subscription's delivery accounting.
func (s *Subscription) Stats() SubscriptionStats {
	return SubscriptionStats{
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
		Buffered:  len(s.ch),
	}
}

// Cancelled reports whether Cancel has run.
func (s *Subscription) Cancelled() bool { return s.done.Load() }

// Cancel withdraws the subscription from the deployment (removing it from
// the roaming profile and, while connected, unsubscribing at the border
// broker), then closes the event stream. Safe to call from any goroutine,
// multiple times; under System call it between Settle steps like every
// other Port operation.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.done.Store(true)
		close(s.cancelled) // unblocks a Block-policy push in flight
		if s.unsub != nil {
			s.unsub(s)
		}
		s.pushMu.Lock()
		close(s.ch)
		s.pushMu.Unlock()
	})
}

// orphan closes the stream without withdrawing the subscription at the
// deployment — used when a newer handle supersedes an older one under the
// same durable ID: the old handle's range loops terminate instead of
// blocking forever, and its later Cancel is a no-op (so it cannot tear
// down the successor's registration).
func (s *Subscription) orphan() {
	s.once.Do(func() {
		s.done.Store(true)
		close(s.cancelled)
		s.pushMu.Lock()
		close(s.ch)
		s.pushMu.Unlock()
	})
}

// push offers one delivery to the stream under the overflow policy. abort
// — the session's connect epoch ending — ends a Block wait; a nil abort
// channel never fires.
func (s *Subscription) push(d Delivery, abort <-chan struct{}) {
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	if s.done.Load() {
		return
	}
	switch s.policy {
	case Block:
		// A push that fits is never aborted: only a wait is.
		select {
		case s.ch <- d:
			s.delivered.Add(1)
			return
		default:
		}
		select {
		case s.ch <- d:
			s.delivered.Add(1)
		case <-s.cancelled:
			s.dropped.Add(1)
		case <-abort:
			s.dropped.Add(1)
		}
	case DropNewest:
		select {
		case s.ch <- d:
			s.delivered.Add(1)
		default:
			s.dropped.Add(1)
		}
	default: // DropOldest
		for {
			select {
			case s.ch <- d:
				s.delivered.Add(1)
				return
			default:
			}
			select {
			case <-s.ch:
				s.dropped.Add(1)
			default:
				// A concurrent consumer emptied the stream between the
				// two selects; retry the send.
			}
		}
	}
}

// streamSet is a port's subscription registry plus its catch-all stream:
// the client-side delivery dispatcher a session's OnDeliver feeds.
type streamSet struct {
	mu       sync.Mutex
	subs     map[SubID]*Subscription
	catchAll *Subscription
	notify   func(n Notification)
}

func newStreamSet() *streamSet {
	return &streamSet{
		subs: make(map[SubID]*Subscription),
		catchAll: newSubscription("", AllFilter(),
			subConfig{buffer: catchAllBuffer, policy: DropOldest}, nil),
	}
}

func (ss *streamSet) add(s *Subscription) {
	ss.mu.Lock()
	old := ss.subs[s.id]
	ss.subs[s.id] = s
	ss.mu.Unlock()
	if old != nil && old != s {
		// Same (durable) ID re-subscribed: the newer handle owns the
		// stream from here on; close the superseded one.
		old.orphan()
	}
}

func (ss *streamSet) remove(id SubID) {
	ss.mu.Lock()
	delete(ss.subs, id)
	ss.mu.Unlock()
}

// closeAll cancels every stream, the catch-all included: deployment
// teardown closes the Events channels so range loops over them
// terminate.
func (ss *streamSet) closeAll() {
	ss.mu.Lock()
	subs := make([]*Subscription, 0, len(ss.subs)+1)
	for _, s := range ss.subs {
		subs = append(subs, s)
	}
	subs = append(subs, ss.catchAll)
	ss.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
}

// setNotify registers (or clears) the callback adapter. Registration
// empties the catch-all stream first, so the callback observes only
// deliveries from this point on — the same contract as the pre-stream
// OnNotify field — rather than replaying a stale backlog.
func (ss *streamSet) setNotify(fn func(n Notification)) {
	ss.mu.Lock()
	ss.notify = fn
	catchAll := ss.catchAll
	ss.mu.Unlock()
	if fn == nil {
		return
	}
	for {
		select {
		case _, ok := <-catchAll.ch:
			if !ok {
				return
			}
		default:
			return
		}
	}
}

// streamStat is one stream's depth snapshot for the telemetry collectors:
// the subscription ID ("" for the catch-all) with its Stats.
type streamStat struct {
	id    SubID
	stats SubscriptionStats
}

// stats snapshots every stream's buffered depth and drop count, catch-all
// included — the feed behind the rebeca_stream_* metrics.
func (ss *streamSet) stats() []streamStat {
	ss.mu.Lock()
	out := make([]streamStat, 0, len(ss.subs)+1)
	for id, s := range ss.subs {
		out = append(out, streamStat{id: id, stats: s.Stats()})
	}
	out = append(out, streamStat{id: ss.catchAll.id, stats: ss.catchAll.Stats()})
	ss.mu.Unlock()
	return out
}

// dispatch routes one fresh delivery: to the per-subscription streams it
// matched (by broker-attached identity when present, by filter with
// markers ignored for session-layer replays), then to the catch-all
// stream, which a registered OnNotify callback drains synchronously.
// The marker-ignoring fallback is deliberately permissive: a replay that
// matched one marker subscription at the broker can reach a sibling
// stream differing only in its markers. Attaching subscription identity
// at replay emission (mobility manager, replicator) would remove the
// ambiguity and is the intended follow-up.
func (ss *streamSet) dispatch(d Delivery, abort <-chan struct{}) {
	ss.mu.Lock()
	var targets []*Subscription
	if len(d.Subs) > 0 {
		for _, id := range d.Subs {
			if s, ok := ss.subs[id]; ok {
				targets = append(targets, s)
			}
		}
	} else {
		for _, s := range ss.subs {
			if s.filter.MatchesIgnoringMarkers(d.Note) {
				targets = append(targets, s)
			}
		}
	}
	catchAll, notify := ss.catchAll, ss.notify
	ss.mu.Unlock()

	for _, s := range targets {
		s.push(d, abort)
	}
	catchAll.push(d, abort)
	if notify != nil {
		for {
			select {
			case nd, ok := <-catchAll.ch:
				if !ok {
					return
				}
				notify(nd.Note)
			default:
				return
			}
		}
	}
}
