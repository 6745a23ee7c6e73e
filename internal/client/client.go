// Package client is the client half of the protocol, written once for
// every transport: the local broker of Fig. 3, embedded in the application
// process. A Client is one session. It offers the pub/sub interface (pub,
// sub, unsub, notify — §2), keeps the subscription profile across roaming,
// tracks connection state and the previous border ("connection
// awareness"), mints subscription IDs, numbers publishes, and deduplicates
// deliveries by notification ID so the mobility layers may err toward
// duplication, never loss.
//
// The medium is the session's only seam, a Transport: the simulator's
// virtual network (internal/sim) or a TCP link (internal/wire's
// RemoteClient). Nothing else about a client depends on which.
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rebeca/internal/dedup"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

// DefaultDedupWindow is the per-publisher window of sequence numbers a
// session's duplicate suppression retains (dedup.Window).
const DefaultDedupWindow = dedup.DefaultWindow

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
// Not safe for concurrent use; callers serialize (a Client holds it under
// its session lock).
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

// Tally is a session's delivery accounting: dedup by notification ID,
// incremental per-publisher FIFO-violation counting, and the bounded
// delivery log. Not safe for concurrent use; callers serialize.
type Tally struct {
	Log      DeliveryLog
	seen     *dedup.Window[struct{}]
	dups     int
	lastSeq  map[message.NodeID]uint64
	fifoViol int
}

// NewTally builds an empty accounting state.
func NewTally() *Tally {
	return &Tally{
		seen:    dedup.New[struct{}](DefaultDedupWindow),
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

// ErrNotConnected is returned by the session operations that need a link
// to a border broker.
var ErrNotConnected = errors.New("rebeca: client not connected")

// Transport is a session's link to its border broker — the one part of a
// client the session does not own. Attach and Disconnect bracket a connect
// epoch; Send is called between them.
type Transport interface {
	// Attach opens a link to the border broker at addr and sends hello, the
	// session's KConnect (previous border, profile, epoch). It returns the
	// border's ID as the broker identified itself: the previous border the
	// session announces on its next connect.
	Attach(addr string, hello proto.Message) (border message.NodeID, err error)
	// Send transmits one message to the border. m.Note is the session's
	// reused publish buffer, valid only until Send returns, and the
	// attribute maps of m.Note and m.Notes are the publishing caller's,
	// free to change once Publish returns: a transport that keeps the
	// message past the call copies the notifications, maps included. One
	// that encodes before returning (wire.RemoteClient) copies nothing.
	Send(m proto.Message) error
	// Disconnect sends KDisconnect and closes the link. It may wait until
	// the deliveries in flight have been handed to the session.
	Disconnect() error
}

// Client is one client session: the roaming profile, the connect epoch and
// previous border, subscription-ID minting, publish sequencing and the
// delivery Tally, over a Transport.
//
// A Client is safe for concurrent use. Commands may come from any
// goroutine, and deliveries (Deliver, Receive) may arrive concurrently
// with them — on a live transport, from its delivery pump. The session
// state sits behind one lock that is never held across a transport call
// or a hook: Disconnect may wait for the delivery pump, and OnDeliver may
// block on a Block-policy stream. Each connect epoch has an abort channel,
// closed when the epoch ends and handed to OnDeliver with every delivery,
// so a blocked consumer cannot stall the teardown that ends its epoch.
// Publishes are serialized among themselves: sequence order is send order.
type Client struct {
	id  message.NodeID
	t   Transport
	now func() time.Time

	// pubMu serializes publishes and guards the sequence state and note,
	// the publish in flight (see Transport.Send). It is held across Send,
	// which is what makes sequence order send order; deliveries never take
	// it. Taken before mu.
	pubMu  sync.Mutex
	pubSeq uint64
	pubseq *PubSequencer // durable publisher identity (nil = in memory)
	note   message.Notification

	mu        sync.Mutex
	connected bool
	prev      message.NodeID // the border the last connect reached: the current one while connected
	epoch     uint64
	abort     chan struct{} // closed when the current epoch ends
	subs      []proto.Subscription
	nextSubID int
	tally     *Tally

	// OnDeliver, when set, observes every fresh delivery together with its
	// epoch's abort channel — the hook the deployment facade's
	// per-subscription streams are fed from. It runs without the session
	// lock and may block until abort fires.
	OnDeliver func(d Delivery, abort <-chan struct{})
}

// New builds a disconnected session for client id over t; now supplies
// (virtual) time for publish and arrival stamps.
func New(id message.NodeID, t Transport, now func() time.Time) *Client {
	if now == nil {
		now = time.Now
	}
	return &Client{id: id, t: t, now: now, tally: NewTally()}
}

// SetDeliveryLog bounds the client's delivery log: n > 0 retains the last
// n deliveries in a ring, n == 0 retains everything (the default), n < 0
// disables recording (Received returns nil; dedup and FIFO accounting are
// unaffected).
func (c *Client) SetDeliveryLog(n int) {
	c.mu.Lock()
	c.tally.Log.SetCap(n)
	c.mu.Unlock()
}

// UseDurablePublisher backs the client's publish sequence numbers with a
// persisted identity in the store's "pub/<client>" snapshot namespace: a
// client recreated after a process restart resumes its sequence space
// monotonically, so subscribers' dedup state keeps recognizing it as the
// same publisher instead of suppressing the fresh notifications. Without
// it a recreated client starts again at sequence 1.
func (c *Client) UseDurablePublisher(st store.Store) {
	c.pubMu.Lock()
	c.pubseq = NewPubSequencer(st, c.id)
	c.pubMu.Unlock()
}

// nextPubSeq assigns the next publish sequence number. Callers hold pubMu.
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
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connected
}

// Border returns the current border broker ("" while disconnected).
func (c *Client) Border() message.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.connected {
		return ""
	}
	return c.prev
}

// Epoch returns the number of connects attempted so far.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Connect attaches the session to the border broker at addr — a broker ID
// on the simulator's network, host:port over TCP — roaming there if it is
// connected elsewhere. The old link is dropped first, so a failed attach
// leaves the session disconnected rather than pointing at a stale border.
// The hello announces the previous border and the whole profile: that is
// what lets the new border relocate the session, and the replicator's
// exception mode find it.
func (c *Client) Connect(addr string) error {
	_ = c.Disconnect() // a failed goodbye to the old border does not stop the roam
	c.mu.Lock()
	c.epoch++
	// Armed before the attach: the border may replay buffered
	// notifications the instant the link is up.
	abort := make(chan struct{})
	c.abort = abort
	hello := proto.Message{
		Kind:   proto.KConnect,
		Client: c.id,
		Origin: c.prev,
		Subs:   append([]proto.Subscription(nil), c.subs...),
		Epoch:  c.epoch,
	}
	c.mu.Unlock()
	border, err := c.t.Attach(addr, hello)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		close(abort)
		return err
	}
	c.connected, c.prev = true, border
	return nil
}

// ConnectTo is Connect on a transport addressed by broker ID, whose attach
// cannot fail — the simulator's.
func (c *Client) ConnectTo(b message.NodeID) { _ = c.Connect(string(b)) }

// Disconnect drops the link to the border (power saving, leaving a cell)
// and ends the connect epoch. A no-op while disconnected.
func (c *Client) Disconnect() error {
	c.mu.Lock()
	if !c.connected {
		c.mu.Unlock()
		return nil
	}
	c.connected = false
	// Abort the Block pushes in flight so the delivery pump can drain
	// before the transport's teardown waits on it. The closed channel stays
	// in c.abort until the next Connect: deliveries still in the pump must
	// find it firing.
	close(c.abort)
	c.mu.Unlock()
	return c.t.Disconnect()
}

// send transmits m when connected. A subscription change the link loses
// is not lost: the profile travels with the next connect.
func (c *Client) send(m proto.Message) {
	c.mu.Lock()
	connected := c.connected
	c.mu.Unlock()
	if connected {
		_ = c.t.Send(m)
	}
}

// NewSubID mints the ID of a new subscription: "<client>/d:<name>" for a
// durable name — the same in every incarnation of the client, so a
// restarted client reattaches to its broker-side queue — and otherwise
// "<client>/s<n>" from the session's counter.
func (c *Client) NewSubID(durable string) message.SubID {
	if durable != "" {
		return message.SubID(string(c.id) + "/d:" + durable)
	}
	c.mu.Lock()
	c.nextSubID++
	n := c.nextSubID
	c.mu.Unlock()
	return message.SubID(fmt.Sprintf("%s/s%d", c.id, n))
}

// Subscribe registers interest under a freshly minted ID and returns it.
func (c *Client) Subscribe(f filter.Filter) message.SubID {
	return c.SubscribeAs(c.NewSubID(""), f)
}

// SubscribeAt is a convenience for location-dependent subscriptions: it
// appends the myloc marker (§1).
func (c *Client) SubscribeAt(cs ...filter.Constraint) message.SubID {
	return c.Subscribe(filter.AtLocation(cs...))
}

// SubscribeAs registers f under id (minted by NewSubID). The subscription
// joins the roaming profile — re-registering an ID already there replaces
// its filter — and is announced at the border while connected; while
// disconnected it travels with the next connect's profile.
func (c *Client) SubscribeAs(id message.SubID, f filter.Filter) message.SubID {
	sub := proto.Subscription{ID: id, Filter: f}
	c.mu.Lock()
	if i := c.find(id); i >= 0 {
		c.subs[i] = sub
	} else {
		c.subs = append(c.subs, sub)
	}
	c.mu.Unlock()
	c.send(proto.Message{Kind: proto.KSubscribe, Client: c.id, Sub: &sub})
	return id
}

// Unsubscribe withdraws a subscription from the profile and, while
// connected, at the border. Unknown IDs are ignored.
func (c *Client) Unsubscribe(id message.SubID) {
	c.mu.Lock()
	i := c.find(id)
	if i < 0 {
		c.mu.Unlock()
		return
	}
	sub := c.subs[i]
	c.subs = append(c.subs[:i], c.subs[i+1:]...)
	c.mu.Unlock()
	c.send(proto.Message{Kind: proto.KUnsubscribe, Client: c.id, Sub: &sub})
}

// find returns the profile index of id, or -1. Callers hold mu.
func (c *Client) find(id message.SubID) int {
	for i, s := range c.subs {
		if s.ID == id {
			return i
		}
	}
	return -1
}

// Subscriptions returns a copy of the profile.
func (c *Client) Subscriptions() []proto.Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]proto.Subscription(nil), c.subs...)
}

// Publish emits a notification and returns its assigned ID: the next
// sequence number, stamped with the publish time. It needs a connection
// (ErrNotConnected otherwise) and fails with the transport's send error.
func (c *Client) Publish(attrs map[string]message.Value) (message.NotificationID, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	if !c.Connected() {
		return message.NotificationID{}, ErrNotConnected
	}
	c.note = message.Notification{
		ID:        message.NotificationID{Publisher: c.id, Seq: c.nextPubSeq()},
		Published: c.now(),
		Attrs:     attrs, // the caller's map: see Transport.Send
	}
	err := c.t.Send(proto.Message{Kind: proto.KPublish, Client: c.id, Note: &c.note})
	id := c.note.ID
	c.note = message.Notification{}
	if err != nil {
		return message.NotificationID{}, err
	}
	return id, nil
}

// PublishBatch emits several notifications in one wire message
// (KPublishBatch): the border broker unpacks and routes each exactly like
// an individual publish, so only the client->border framing is amortized.
// Returns the assigned IDs, in order. Requires a connection.
func (c *Client) PublishBatch(batch []map[string]message.Value) ([]message.NotificationID, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	if !c.Connected() {
		return nil, ErrNotConnected
	}
	if len(batch) == 0 {
		return nil, nil
	}
	notes := make([]message.Notification, len(batch))
	ids := make([]message.NotificationID, len(batch))
	now := c.now()
	for i, attrs := range batch {
		ids[i] = message.NotificationID{Publisher: c.id, Seq: c.nextPubSeq()}
		notes[i] = message.Notification{ID: ids[i], Published: now, Attrs: attrs}
	}
	if err := c.t.Send(proto.Message{Kind: proto.KPublishBatch, Client: c.id, Notes: notes}); err != nil {
		return nil, err
	}
	return ids, nil
}

// Receive is the session's endpoint on the simulator's network: each note
// a KDeliver carries (its Note, then its Notes in order) goes to Deliver,
// everything else is ignored.
func (c *Client) Receive(_ message.NodeID, m proto.Message) {
	if m.Kind != proto.KDeliver {
		return
	}
	if m.Note != nil {
		c.Deliver(*m.Note, m.SubIDs)
	}
	for i := range m.Notes {
		c.Deliver(m.Notes[i], m.SubIDs)
	}
}

// Deliver accounts one notification from the border, with the subscription
// identities it matched there: a duplicate is counted and dropped, a fresh
// delivery is logged and handed to OnDeliver outside the session lock.
func (c *Client) Deliver(n message.Notification, subs []message.SubID) {
	d := Delivery{Note: n, At: c.now(), Subs: subs}
	c.mu.Lock()
	fresh := c.tally.Record(d)
	abort := c.abort
	c.mu.Unlock()
	if !fresh {
		return
	}
	if c.OnDeliver != nil {
		c.OnDeliver(d, abort)
	}
}

// Received returns the retained deliveries in arrival order: everything
// when the log is unbounded (the default), the last n under
// SetDeliveryLog(n), nil when disabled.
func (c *Client) Received() []Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally.Log.Snapshot()
}

// ReceivedNotes returns just the retained notifications, in arrival order.
func (c *Client) ReceivedNotes() []message.Notification {
	ds := c.Received()
	out := make([]message.Notification, len(ds))
	for i, d := range ds {
		out[i] = d.Note
	}
	return out
}

// Delivered returns the total number of fresh deliveries, independent of
// how many the bounded log retains.
func (c *Client) Delivered() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally.Log.Total()
}

// Duplicates returns the number of duplicate deliveries suppressed.
func (c *Client) Duplicates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally.Duplicates()
}

// FIFOViolations counts per-publisher sequence inversions in the delivery
// order — zero under the transparent relocation protocol.
func (c *Client) FIFOViolations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally.FIFOViolations()
}
