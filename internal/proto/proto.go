// Package proto defines the wire messages exchanged between nodes: the
// pub/sub triple (publish, subscribe, unsubscribe) of §2, client session
// management, the physical-mobility relocation protocol [8], and the
// replicator-layer messages of §3.2 (replica creation/deletion, subscription
// propagation, buffer fetch).
//
// A single Message struct with optional payload fields keeps the transport,
// simulator and binary codec uniform; Kind discriminates.
package proto

import (
	"fmt"

	"rebeca/internal/filter"
	"rebeca/internal/message"
)

// Kind discriminates wire messages. Enums start at one.
type Kind int

// Message kinds.
const (
	KInvalid Kind = iota

	// --- content-based routing (§2) ---

	// KPublish carries a notification through the broker overlay.
	KPublish
	// KPublishBatch frames several publishes from one client in a single
	// wire message (Notes). The border broker unpacks the batch and routes
	// each notification exactly as an individual KPublish, so middleware
	// and routing semantics are unchanged — only the client->border framing
	// is amortized.
	KPublishBatch
	// KSubscribe installs a subscription and is forwarded along the overlay.
	KSubscribe
	// KUnsubscribe removes a subscription.
	KUnsubscribe
	// Two reserved kinds: an advertisement and its withdrawal held these
	// numbers. They stay taken so every later kind keeps its wire number;
	// a broker drops them like any kind no stage claims.
	_
	_

	// --- client session (client <-> border broker) ---

	// KConnect announces a (mobile) client at a border broker. It carries
	// the client's previous broker and its subscription profile so the
	// border can run relocation or the replicator's exception mode.
	KConnect
	// KDisconnect announces that the client's wireless link dropped.
	KDisconnect
	// KDeliver hands a matching notification to a client. SubIDs, when
	// set, names the client subscriptions the notification matched at the
	// border broker (per-subscription stream routing client-side).
	KDeliver
	// KCredit grants the border broker delivery credits for this client
	// link (credit-based flow control). It travels client -> border only
	// and is consumed by the transport, never by the broker state machine.
	KCredit

	// --- physical mobility relocation (unicast broker-to-broker, [8]) ---

	// KRelocReq: new border asks the old border to relocate a client.
	KRelocReq
	// KRelocProfile: old border ships the client's subscriptions, buffered
	// notifications and per-publisher watermarks to the new border.
	KRelocProfile
	// KRelocActivate: new border has installed the client's subscriptions.
	// It follows their relocation flips down the same FIFO path, so when it
	// reaches the old border every note routed toward that border before a
	// flip has arrived there and been tap-forwarded.
	KRelocActivate
	// KRelocTail: old border closes the tap; the new border may replay and
	// go live. The old border forgets the client.
	KRelocTail

	// Two reserved kinds: a handover flush wave and its convergecast ack
	// held these numbers. They stay taken so every later kind keeps its
	// wire number; a broker drops them like any kind no stage claims.
	_
	_

	// --- replicator layer (§3.2, direct replicator-to-replicator) ---

	// KReplicaCreate instructs a neighbor replicator to start a buffering
	// virtual client with the given location-dependent subscriptions.
	KReplicaCreate
	// KReplicaDelete garbage-collects a virtual client.
	KReplicaDelete
	// KReplicaSub propagates one new location-dependent subscription to an
	// existing virtual client.
	KReplicaSub
	// KReplicaUnsub removes one subscription from a virtual client.
	KReplicaUnsub
	// KBufferFetch asks a remote replicator for a virtual client's buffer
	// (exception mode, §4: pop-up at an uncovered broker).
	KBufferFetch
	// KBufferFetchReply returns the requested buffer contents.
	KBufferFetchReply

	// --- overlay link management (link-local, internal/overlay) ---

	// KHello opens the sync handshake on a freshly (re-)established overlay
	// link: each side announces itself (Origin) and its handshake
	// generation (Epoch). The peer answers with a KSyncInstall echoing the
	// Epoch, so replies from a superseded link generation are discarded.
	KHello
	// KSyncInstall replays the sender's local routing installs to the peer:
	// Subs carries every routing-table subscription not learned from that
	// peer, and Epoch echoes the KHello that solicited the replay.
	// Receiving a matching KSyncInstall completes the handshake — only
	// then does the link carry traffic.
	KSyncInstall
	// KPing probes an established overlay link (heartbeat failure
	// detection). Link-local; consumed by the overlay manager.
	KPing
	// KPong answers a KPing.
	KPong

	// --- spanning-tree election (link-state flooding, internal/broker) ---

	// KLinkState floods one broker's observation of an incident overlay
	// edge through the mesh so every broker recomputes the same spanning
	// tree. It reuses existing envelope fields: Origin is the reporting
	// broker, Client the far end of the reported edge (reports always
	// concern the reporter's own incident edges), Epoch the reporter's
	// monotonic link-state sequence, and Stale marks the edge down
	// (false = back up). Dest stays empty — a set Dest would make the
	// record look like a unicast in transit. Brokers keep the highest
	// Epoch per (reporter, edge), re-flood only fresh records, and never
	// flood back onto the arrival link.
	KLinkState

	// numKinds marks the end of the enum; keep it last.
	numKinds
)

// NumKinds is the number of defined message kinds plus the invalid zero —
// the sentinel explicit codecs validate decoded kinds against.
const NumKinds = int(numKinds)

var kindNames = map[Kind]string{
	KPublish:          "publish",
	KPublishBatch:     "publish-batch",
	KCredit:           "credit",
	KSubscribe:        "subscribe",
	KUnsubscribe:      "unsubscribe",
	KConnect:          "connect",
	KDisconnect:       "disconnect",
	KDeliver:          "deliver",
	KRelocReq:         "reloc-req",
	KRelocProfile:     "reloc-profile",
	KRelocActivate:    "reloc-activate",
	KRelocTail:        "reloc-tail",
	KReplicaCreate:    "replica-create",
	KReplicaDelete:    "replica-delete",
	KReplicaSub:       "replica-sub",
	KReplicaUnsub:     "replica-unsub",
	KBufferFetch:      "buffer-fetch",
	KBufferFetchReply: "buffer-fetch-reply",
	KHello:            "hello",
	KSyncInstall:      "sync-install",
	KPing:             "ping",
	KPong:             "pong",
	KLinkState:        "link-state",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Control reports whether the kind belongs to a mobility/replication
// control protocol rather than the pub/sub data plane. Experiments use the
// split for overhead accounting.
func (k Kind) Control() bool {
	switch k {
	case KPublish, KPublishBatch, KSubscribe, KUnsubscribe, KDeliver:
		return false
	default:
		return true
	}
}

// Subscription pairs a filter with its end-to-end identity.
type Subscription struct {
	ID     message.SubID
	Filter filter.Filter
}

// String renders the subscription.
func (s Subscription) String() string {
	return fmt.Sprintf("%s:%s", s.ID, s.Filter)
}

// Message is the single wire envelope. Only the fields relevant to Kind
// are populated; see each kind's doc.
type Message struct {
	Kind Kind
	// From is the immediate sender, stamped by the transport on delivery.
	From message.NodeID
	// Origin is the logical source node of the message (e.g. the client a
	// KConnect concerns was issued for, or the broker that started a
	// relocation).
	Origin message.NodeID
	// Dest is the unicast destination for control messages routed by the
	// broker overlay's next-hop tables; empty for content-routed and
	// link-local messages.
	Dest message.NodeID
	// Client is the subject client of session/mobility messages.
	Client message.NodeID

	// Note carries a single notification (KPublish, KDeliver).
	Note *message.Notification
	// RawNote is a KPublish's notification still encoded: the relay form a
	// broker's links decode a publish to (internal/codec), so a broker that
	// only matches and forwards it never builds a Notification and sends
	// the bytes on as they came. A publish carries its note in exactly one
	// of Note and RawNote. The bytes belong to the message and are never
	// modified.
	RawNote []byte
	// Notes carries a notification batch (KPublishBatch, KRelocProfile,
	// KRelocTail, KBufferFetchReply).
	Notes []message.Notification
	// SubIDs names the subscriptions a KDeliver matched at the border
	// broker. Empty on deliveries emitted by the session layers (ghost
	// replay, relocation taps); clients then resolve the target streams
	// by filter.
	SubIDs []message.SubID
	// Credits is the number of delivery credits granted by a KCredit, and
	// the initial delivery window announced by a KConnect (0 = the link is
	// not flow controlled).
	Credits int
	// Sub carries one subscription (KSubscribe, KUnsubscribe, KReplicaSub,
	// KReplicaUnsub).
	Sub *Subscription
	// Subs carries a subscription profile (KConnect, KRelocProfile,
	// KReplicaCreate) or the routing-table replay of a KSyncInstall.
	Subs []Subscription
	// Watermarks carries per-publisher delivered sequence numbers for
	// exactly-once replay (KRelocProfile).
	Watermarks map[message.NodeID]uint64
	// Epoch is the client's monotonic connect counter. Every KConnect
	// carries the client's current epoch; relocation messages echo the
	// epoch of the connect that triggered them so that stale requests and
	// replies (from superseded moves) are detected and discarded. On
	// KHello/KSyncInstall it carries the overlay link's handshake
	// generation instead (same staleness role, link scope).
	Epoch uint64
	// Stale marks a KRelocProfile reply that declines a stale KRelocReq:
	// the old border has seen a newer connect epoch, so the requester's
	// relocation run is outdated (the requester re-requests from the
	// decliner if the client has since reconnected at the requester, or
	// tears its session down otherwise).
	Stale bool
	// Fresh marks a KRelocProfile reply from a border with no session for
	// the client: there is no state to relocate; the requester proceeds
	// from the client's announced profile, with no activate or tail.
	Fresh bool
	// Hops counts overlay hops for path-length statistics.
	Hops int
}

// String renders a compact summary for logs.
func (m Message) String() string {
	s := m.Kind.String()
	if m.Client != "" {
		s += "[" + string(m.Client) + "]"
	}
	if m.Note != nil {
		s += " " + m.Note.String()
	} else if m.RawNote != nil {
		s += " (encoded note)"
	}
	if m.Sub != nil {
		s += " " + m.Sub.String()
	}
	if m.Dest != "" {
		s += " ->" + string(m.Dest)
	}
	return s
}

// WireSize approximates the on-wire size in bytes for bandwidth accounting.
// Filter keys are measured in a stack scratch buffer, so it allocates
// nothing unless a key is longer than that buffer.
func (m Message) WireSize() int {
	size := 16 + len(m.From) + len(m.Origin) + len(m.Dest) + len(m.Client)
	if m.Note != nil {
		size += m.Note.WireSize()
	}
	size += len(m.RawNote)
	for _, n := range m.Notes {
		size += n.WireSize()
	}
	var scratch [256]byte
	key := scratch[:0]
	subSize := func(s *Subscription) int {
		key = s.Filter.AppendKey(key[:0])
		return len(s.ID) + len(key)
	}
	if m.Sub != nil {
		size += subSize(m.Sub)
	}
	for i := range m.Subs {
		size += subSize(&m.Subs[i])
	}
	size += len(m.Watermarks) * 16
	for _, id := range m.SubIDs {
		size += len(id)
	}
	return size
}
