// Package client implements the client-side library of Fig. 3: the local
// broker embedded in the application process. It offers the pub/sub
// interface (pub, sub, unsub, notify — §2), keeps the subscription profile
// across roaming, tracks connection state ("connection awareness"), and
// deduplicates deliveries by notification ID so the mobility layers may err
// toward duplication, never loss.
package client

import (
	"fmt"
	"time"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// Delivery records one received notification with its arrival time and
// the subscription identities it matched at the border broker (empty for
// session-layer replays, which are resolved client-side by filter).
type Delivery struct {
	Note message.Notification
	At   time.Time
	Subs []message.SubID
}

// DeliveryLog is a bounded ring of deliveries — the capped backing store
// behind Received. Capacity 0 means unbounded (plain append); capacity
// < 0 disables recording entirely. The zero value is an unbounded log.
// Not safe for concurrent use; callers serialize (the TCP port wraps it
// in its own lock).
type DeliveryLog struct {
	cap   int
	buf   []Delivery
	start int // ring head when len(buf) == cap
	total uint64
}

// SetCap bounds the log (n > 0: ring of n, 0: unbounded, < 0: disabled).
// Resizing an already-populated log resets it.
func (l *DeliveryLog) SetCap(n int) {
	if n != l.cap {
		l.buf, l.start = nil, 0
	}
	l.cap = n
}

// Add records one delivery. Total counts it even when retention is
// disabled (Live's settle heuristic watches the count).
func (l *DeliveryLog) Add(d Delivery) {
	l.total++
	switch {
	case l.cap < 0:
	case l.cap == 0:
		l.buf = append(l.buf, d)
	case len(l.buf) < l.cap:
		l.buf = append(l.buf, d)
	default:
		l.buf[l.start] = d
		l.start = (l.start + 1) % l.cap
	}
}

// Snapshot returns the retained deliveries in arrival order.
func (l *DeliveryLog) Snapshot() []Delivery {
	if len(l.buf) == 0 {
		return nil
	}
	out := make([]Delivery, 0, len(l.buf))
	out = append(out, l.buf[l.start:]...)
	out = append(out, l.buf[:l.start]...)
	return out
}

// Total counts every recorded delivery, independent of retention.
func (l *DeliveryLog) Total() uint64 { return l.total }

// Tally is the per-port delivery accounting shared by the in-process
// client and the TCP port: dedup by notification ID, incremental
// per-publisher FIFO-violation counting, and the bounded delivery log.
// Not safe for concurrent use; callers serialize.
type Tally struct {
	Log      DeliveryLog
	seen     *DedupSet
	dups     int
	lastSeq  map[message.NodeID]uint64
	fifoViol int
}

// NewTally builds an empty accounting state.
func NewTally() *Tally {
	return &Tally{
		seen:    NewDedupSet(0),
		lastSeq: make(map[message.NodeID]uint64),
	}
}

// Record accounts one incoming delivery and reports whether it is fresh
// (false = suppressed duplicate). Fresh deliveries are appended to the
// log.
func (t *Tally) Record(d Delivery) bool {
	id := d.Note.ID
	if !id.IsZero() {
		if t.seen.Seen(id) {
			t.dups++
			return false
		}
		if id.Seq < t.lastSeq[id.Publisher] {
			t.fifoViol++
		} else {
			t.lastSeq[id.Publisher] = id.Seq
		}
	}
	t.Log.Add(d)
	return true
}

// Duplicates returns the number of suppressed duplicate deliveries.
func (t *Tally) Duplicates() int { return t.dups }

// FIFOViolations returns the per-publisher sequence inversions observed.
func (t *Tally) FIFOViolations() int { return t.fifoViol }

// Client is a (possibly mobile) pub/sub client. Not safe for concurrent
// use; drive it from the simulator loop or a single goroutine.
type Client struct {
	id   message.NodeID
	send func(to message.NodeID, m proto.Message)
	now  func() time.Time

	border    message.NodeID
	prev      message.NodeID
	connected bool

	subs      []proto.Subscription
	nextSubID int
	pubSeq    uint64
	pubseq    *PubSequencer
	epoch     uint64

	tally *Tally

	// OnNotify, when set, observes every fresh delivery.
	OnNotify func(n message.Notification)
	// OnDeliver, when set, observes every fresh delivery together with the
	// matched subscription identities — the hook the deployment facade's
	// per-subscription streams are fed from. Runs before OnNotify.
	OnDeliver func(d Delivery)
}

// New builds a client. send transmits to the named node (the border broker
// while connected); now supplies (virtual) time.
func New(id message.NodeID, send func(to message.NodeID, m proto.Message), now func() time.Time) *Client {
	if now == nil {
		now = time.Now
	}
	return &Client{
		id:    id,
		send:  send,
		now:   now,
		tally: NewTally(),
	}
}

// SetDeliveryLog bounds the client's delivery log: n > 0 retains the last
// n deliveries in a ring, n == 0 retains everything (the default), n < 0
// disables recording (Received returns nil; dedup and FIFO accounting are
// unaffected).
func (c *Client) SetDeliveryLog(n int) { c.tally.Log.SetCap(n) }

// UseDurablePublisher backs the client's publish sequence numbers with a
// persisted identity in the store's "pub/<client>" snapshot namespace: a
// client recreated after a process restart resumes its sequence space
// monotonically, so subscribers' dedup state keeps recognizing it as the
// same publisher instead of suppressing the fresh notifications.
func (c *Client) UseDurablePublisher(st store.Store) {
	c.pubseq = NewPubSequencer(st, c.id)
}

// nextPubSeq assigns the next publish sequence number, durable when
// UseDurablePublisher configured one.
func (c *Client) nextPubSeq() uint64 {
	if c.pubseq != nil {
		return c.pubseq.Next()
	}
	c.pubSeq++
	return c.pubSeq
}

// ID returns the client's node ID.
func (c *Client) ID() message.NodeID { return c.id }

// Connected reports connection state.
func (c *Client) Connected() bool { return c.connected }

// Border returns the current border broker ("" while disconnected).
func (c *Client) Border() message.NodeID {
	if !c.connected {
		return ""
	}
	return c.border
}

// ConnectTo attaches the client to a border broker, announcing the previous
// border and the full subscription profile (used by relocation and by the
// replicator's exception mode).
func (c *Client) ConnectTo(b message.NodeID) {
	if c.connected {
		c.Disconnect()
	}
	c.border = b
	c.connected = true
	c.epoch++
	c.send(b, proto.Message{
		Kind:   proto.KConnect,
		Client: c.id,
		Origin: c.prev,
		Subs:   append([]proto.Subscription(nil), c.subs...),
		Epoch:  c.epoch,
	})
	c.prev = b
}

// Disconnect drops the wireless link (power saving, leaving a cell).
func (c *Client) Disconnect() {
	if !c.connected {
		return
	}
	c.send(c.border, proto.Message{Kind: proto.KDisconnect, Client: c.id})
	c.connected = false
}

// Subscribe registers interest and returns the subscription's ID. The
// subscription joins the roaming profile; while disconnected it is merely
// recorded and issued on the next connect.
func (c *Client) Subscribe(f filter.Filter) message.SubID {
	c.nextSubID++
	id := message.SubID(fmt.Sprintf("%s/s%d", c.id, c.nextSubID))
	sub := proto.Subscription{ID: id, Filter: f}
	c.subs = append(c.subs, sub)
	if c.connected {
		c.send(c.border, proto.Message{Kind: proto.KSubscribe, Client: c.id, Sub: &sub})
	}
	return id
}

// SubscribeAs registers a subscription under a caller-chosen stable ID —
// the durable-subscription path, where the ID must survive process
// restarts so a recreated client reattaches to its broker-side queue.
// Re-registering an ID already in the profile updates its filter and,
// while connected, re-announces it so the border's routing entry follows.
func (c *Client) SubscribeAs(id message.SubID, f filter.Filter) message.SubID {
	sub := proto.Subscription{ID: id, Filter: f}
	replaced := false
	for i, s := range c.subs {
		if s.ID == id {
			c.subs[i] = sub
			replaced = true
			break
		}
	}
	if !replaced {
		c.subs = append(c.subs, sub)
	}
	if c.connected {
		c.send(c.border, proto.Message{Kind: proto.KSubscribe, Client: c.id, Sub: &sub})
	}
	return id
}

// SubscribeAt is a convenience for location-dependent subscriptions: it
// appends the myloc marker (§1).
func (c *Client) SubscribeAt(cs ...filter.Constraint) message.SubID {
	return c.Subscribe(filter.AtLocation(cs...))
}

// Unsubscribe withdraws a subscription.
func (c *Client) Unsubscribe(id message.SubID) {
	for i, s := range c.subs {
		if s.ID != id {
			continue
		}
		sub := s
		c.subs = append(c.subs[:i], c.subs[i+1:]...)
		if c.connected {
			c.send(c.border, proto.Message{Kind: proto.KUnsubscribe, Client: c.id, Sub: &sub})
		}
		return
	}
}

// Subscriptions returns a copy of the profile.
func (c *Client) Subscriptions() []proto.Subscription {
	return append([]proto.Subscription(nil), c.subs...)
}

// Advertise announces the notification space this client will publish
// into (advertisement-based routing). Returns the advertisement's ID.
func (c *Client) Advertise(f filter.Filter) message.SubID {
	c.nextSubID++
	id := message.SubID(fmt.Sprintf("%s/a%d", c.id, c.nextSubID))
	adv := proto.Subscription{ID: id, Filter: f}
	if c.connected {
		c.send(c.border, proto.Message{Kind: proto.KAdvertise, Client: c.id, Sub: &adv})
	}
	return id
}

// Unadvertise withdraws an advertisement.
func (c *Client) Unadvertise(id message.SubID) {
	if c.connected {
		adv := proto.Subscription{ID: id}
		c.send(c.border, proto.Message{Kind: proto.KUnadvertise, Client: c.id, Sub: &adv})
	}
}

// Publish emits a notification and returns its assigned ID. Publishing
// requires a connection (the wire is the border broker).
func (c *Client) Publish(attrs map[string]message.Value) (message.NotificationID, bool) {
	if !c.connected {
		return message.NotificationID{}, false
	}
	n := message.NewNotification(attrs)
	n.ID = message.NotificationID{Publisher: c.id, Seq: c.nextPubSeq()}
	n.Published = c.now()
	c.send(c.border, proto.Message{Kind: proto.KPublish, Client: c.id, Note: &n})
	return n.ID, true
}

// PublishBatch emits several notifications in one wire message
// (KPublishBatch): the border broker unpacks and routes each exactly like
// an individual publish, so only the client->border framing is amortized.
// Returns the assigned IDs, in order. Requires a connection.
func (c *Client) PublishBatch(batch []map[string]message.Value) ([]message.NotificationID, bool) {
	if !c.connected {
		return nil, false
	}
	if len(batch) == 0 {
		return nil, true
	}
	notes := make([]message.Notification, len(batch))
	ids := make([]message.NotificationID, len(batch))
	now := c.now()
	for i, attrs := range batch {
		n := message.NewNotification(attrs)
		n.ID = message.NotificationID{Publisher: c.id, Seq: c.nextPubSeq()}
		n.Published = now
		notes[i] = n
		ids[i] = n.ID
	}
	c.send(c.border, proto.Message{Kind: proto.KPublishBatch, Client: c.id, Notes: notes})
	return ids, true
}

// Receive is the client's network endpoint: it accepts KDeliver messages,
// deduplicates them by notification ID and records fresh ones.
func (c *Client) Receive(_ message.NodeID, m proto.Message) {
	if m.Kind != proto.KDeliver || m.Note == nil {
		return
	}
	n := *m.Note
	d := Delivery{Note: n, At: c.now(), Subs: m.SubIDs}
	if !c.tally.Record(d) {
		return
	}
	if c.OnDeliver != nil {
		c.OnDeliver(d)
	}
	if c.OnNotify != nil {
		c.OnNotify(n)
	}
}

// Received returns the retained deliveries in arrival order: everything
// when the log is unbounded (the default), the last n under
// SetDeliveryLog(n), nil when disabled.
func (c *Client) Received() []Delivery {
	return c.tally.Log.Snapshot()
}

// ReceivedNotes returns just the retained notifications, in arrival order.
func (c *Client) ReceivedNotes() []message.Notification {
	ds := c.tally.Log.Snapshot()
	out := make([]message.Notification, len(ds))
	for i, d := range ds {
		out[i] = d.Note
	}
	return out
}

// Delivered returns the total number of fresh deliveries, independent of
// how many the bounded log retains.
func (c *Client) Delivered() uint64 { return c.tally.Log.Total() }

// Duplicates returns the number of duplicate deliveries suppressed.
func (c *Client) Duplicates() int { return c.tally.Duplicates() }

// FIFOViolations counts per-publisher sequence inversions in the delivery
// order — zero under the transparent relocation protocol.
func (c *Client) FIFOViolations() int { return c.tally.FIFOViolations() }
