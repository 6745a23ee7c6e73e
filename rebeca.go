// Package rebeca is a content-based publish/subscribe middleware with
// first-class support for mobile clients, reproducing "Dealing with
// Uncertainty in Mobile Publish/Subscribe Middleware" (Fiege, Zeidler,
// Gärtner, Handurukande — Middleware 2003).
//
// It provides:
//
//   - Content-based routing over an acyclic broker overlay (subscriptions
//     forwarded on every link, notifications matched through an index).
//   - Physical mobility: transparent relocation of roaming clients with no
//     loss, no duplicates, and per-publisher FIFO across handovers.
//   - Logical mobility: location-dependent subscriptions via the myloc
//     marker, resolved per border broker.
//   - Extended logical mobility — the paper's contribution: a replicator
//     layer that pre-subscribes buffering virtual clients at every broker
//     in the client's movement-graph neighborhood (nlb), so that arriving
//     clients replay a "subscription in the past".
//
// # Deployments
//
// A deployment is assembled with functional options and comes in two
// interchangeable flavors behind the Deployment interface:
//
//   - New builds a System: the entire overlay in one process on a
//     deterministic virtual clock (a discrete-event simulator) — instant,
//     reproducible, ideal for experiments and tests.
//   - NewLive builds a Live: the same brokers as real TCP nodes on
//     loopback, binary-codec framed links, one event loop per broker.
//
// StartBroker starts a single such broker — the distributed equivalent, one
// process per broker, which is what cmd/rebeca-broker runs; NewLive runs
// the same assembly once per broker.
//
// The broker overlay is the movement graph, any connected graph: brokers
// run a replicated spanning-tree election over it — on a tree the tree
// itself — and treat the redundant edges of a cyclic graph as failover
// paths. WithRegistry (NewLive, StartBroker) replaces static neighbor
// lists with registry-driven membership — see internal/discovery.
//
// Clients are created through Deployment.NewClient and driven through the
// Port interface, so the same scenario code runs against both flavors.
//
// # Subscriptions are streams
//
// Port.Subscribe returns a *Subscription handle: the unit that carries its
// own delivery channel (Events), bounded buffer, overflow policy
// (DropOldest, DropNewest, Block — see WithStreamBuffer / WithOverflow)
// and lifecycle (Cancel). Under Live, a Block stream exerts credit-based
// flow control through the broker overlay back to the publisher
// (WithDeliveryWindow). Ports record no delivery history: the streams
// are the delivery surface. OnNotify remains as a thin callback adapter
// over the port's catch-all stream, and PublishBatch frames many
// notifications per wire message.
//
// # Durable subscriptions
//
// WithDurable(store) backs the buffering layers — the mobility manager's
// ghost/handover buffers and the replicator's virtual clients — with a
// pluggable persistence subsystem (Store): notifications are appended to a
// write-ahead queue before they count as buffered and acked only when
// their delivery or handover is confirmed, and session profiles are
// snapshotted so a deployment rebuilt on the same store (a restarted
// broker) resurrects its disconnected subscribers, re-installs their
// subscriptions, and replays the pending backlog exactly once (the client
// library's dedup set absorbs the at-least-once overlap). Subscriptions
// that should survive a client restart take the Durable(name) option,
// which pins a stable SubID. NewMemoryStore is the in-process
// implementation (with crash and fsync-fault injection for tests); OpenWAL
// is the file-backed one — CRC-framed records in rotating segments with
// ack-driven compaction — used by live deployments and cmd/rebeca-broker's
// -store flag.
//
// # Self-healing overlay
//
// Broker↔broker links are owned by a per-broker overlay manager: every
// link is a supervised state machine (connecting → handshaking →
// established → degraded) whose (re-)establishment runs a sync handshake
// replaying routing installs before the link carries traffic — broker
// start order never matters, and a broker restarted on the same WAL
// directory rejoins the mesh with converged routing. Established links
// exchange heartbeats (WithHeartbeat); a failed link queues outbound
// messages in a bounded buffer and redials with jittered backoff. Link
// transitions surface only through the LinkObserver middleware extension
// (Metrics and Tracer implement it), on System and Live alike; scenarios
// script failures with CutLink/HealLink on both System (virtual clock)
// and Live (TCP).
//
// # Middleware
//
// Every broker runs an ordered extension chain (Middleware): hooks on
// publish, deliver and subscribe, each receiving a next func in the style
// of HTTP/ASGI middleware. Stages run in attachment order — the session
// layers (replicator, then physical-mobility manager; stages like any
// other) first, then everything installed via WithMiddleware — and a stage
// that does not call next consumes the event. Built-ins: Metrics (per-broker counters and
// delivery latency), Tracer (event log), RateLimiter (token-bucket publish
// ingress control). Custom stages embed PassMiddleware and override the
// hooks they care about. The publish hook is optional (PublishInterceptor)
// because it is the one with a price: brokers match and forward a
// notification as the encoded bytes they received, and a publish stage
// makes every broker it runs on build the notification instead.
//
// # Operations
//
// WithOps(addr) gives a deployment an operations endpoint (the
// internal/telemetry subsystem; rebeca-broker exposes it as -ops):
// Prometheus-format /metrics fed by per-broker counters and latency
// histograms plus live collectors (overlay link states, pending queue
// depths, WAL footprint, stream buffer depths, codec frame sizes);
// /healthz and /readyz with readiness gated on overlay convergence
// (every link established and routing-synced); net/http/pprof under
// /debug/pprof/; /trace?note=<id>, which reconstructs a notification's
// multi-hop path from span stamps each broker adds in transit (carried
// across live links by the wire codec); and /config, runtime knobs —
// heartbeat, rate limits, trace verbosity — applied without restart.
// Under WithRegistry each broker registers the endpoint's address, and
// cmd/rebeca-collector, reading the same registry, scrapes the fleet.
// Without WithOps none of this exists and the hot paths carry no
// instrumentation.
//
// # Surviving long partitions
//
// A degraded broker↔broker link queues outbound traffic in a bounded
// in-memory window (WithLinkPendingCap); past the cap the oldest message
// is dropped — fine for a blip, lossy for a real outage. WithLinkSpill
// hands the overflow to a persistence store instead: the backlog spills
// to a per-link queue, survives broker restarts, and replays in order —
// after the routing re-sync, ahead of fresh traffic — when the link
// heals, so volatile subscribers see a gap-free stream across outages
// bounded only by the spill's byte budget. In code:
//
//	sys, _ := rebeca.New(
//		rebeca.WithMovement(g),
//		rebeca.WithHeartbeat(time.Second, 4*time.Second),
//		rebeca.WithLinkSpill(rebeca.NewMemoryStore(), 0), // 0 = default 256MiB budget
//		rebeca.WithLinkPendingCap(1024),
//	)
//
// Operationally, a three-broker gossip mesh where both partitions and
// killed brokers heal without intervention:
//
//	rebeca-broker -name b1 -listen :7471 -registry seed::7481 -link-spill /var/lib/rebeca/b1
//	rebeca-broker -name b2 -listen :7472 -registry seed::7482,host1:7481 -link-spill /var/lib/rebeca/b2
//	rebeca-broker -name b3 -listen :7473 -registry seed::7483,host1:7481 -link-spill /var/lib/rebeca/b3
//
// A partitioned peer's backlog parks in the spill (watch
// rebeca_link_spill_depth, or -stats, or the collector's /fleet) and
// /readyz reports "established,flushing(N)" until the replay drains. A
// SIGKILLed broker is suspected after missed gossip rounds, tombstoned,
// and dropped from every survivor's mesh — with a file registry, the
// same comes from -registry-ttl lease expiry. Losses only happen past
// the byte budget, and then oldest-first and counted
// (rebeca_link_spill_dropped_total).
//
// # Quick start
//
//	g := rebeca.NewGraph()
//	g.AddEdge("home", "office")
//	sys, _ := rebeca.New(rebeca.WithMovement(g))
//	alice := sys.NewClient("alice")
//	alice.Connect("home")
//	news := alice.Subscribe(
//		rebeca.NewFilter(rebeca.Eq("service", rebeca.String("news"))))
//	sys.Settle()
//	// … publish from another client, Settle again, then drain:
//	news.Cancel() // closes the stream; buffered events stay readable
//	for d := range news.Events() {
//		fmt.Println(d.Note)
//	}
//
// Swap rebeca.New for rebeca.NewLive (and defer d.Close()) and the same
// code runs over TCP — there a consumer goroutine typically ranges
// news.Events() while traffic flows.
package rebeca

import (
	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/movement"
)

// Re-exported core types. The facade keeps downstream imports to a single
// package; the internal packages carry the implementation.
type (
	// Value is a typed attribute value.
	Value = message.Value
	// Notification is a published event description.
	Notification = message.Notification
	// NotificationID identifies a notification (publisher, seq).
	NotificationID = message.NotificationID
	// NodeID names a broker or client.
	NodeID = message.NodeID
	// SubID identifies a subscription.
	SubID = message.SubID
	// Filter is a conjunctive content-based subscription filter.
	Filter = filter.Filter
	// Constraint is a single attribute predicate.
	Constraint = filter.Constraint
	// Delivery is a received notification with its arrival time.
	Delivery = client.Delivery
	// Graph is an undirected movement graph (defines nlb).
	Graph = movement.Graph
	// Trace is a precomputed movement schedule.
	Trace = movement.Trace
	// LocationModel maps brokers to logical location scopes.
	LocationModel = location.Model
	// Location names a logical location.
	Location = location.Location
	// ContextResolverFunc derives a context's value set for an attribute.
	ContextResolverFunc = filter.ContextResolver
)

// Value constructors.
var (
	// String constructs a string attribute value.
	String = message.String
	// Int constructs an integer attribute value.
	Int = message.Int
	// Float constructs a float attribute value.
	Float = message.Float
	// Bool constructs a boolean attribute value.
	Bool = message.Bool
)

// Filter constructors.
var (
	// NewFilter builds a conjunctive filter.
	NewFilter = filter.New
	// AllFilter matches every notification.
	AllFilter = filter.All
	// AtLocation builds a location-dependent filter (appends the myloc
	// marker, §1 of the paper).
	AtLocation = filter.AtLocation
	// Context builds a state-dependent marker constraint (§4's
	// generalization of myloc): attr ∈ ctx:<name>, resolved per broker.
	Context = filter.Context
	// Constraint constructors.
	Eq       = filter.Eq
	Ne       = filter.Ne
	Lt       = filter.Lt
	Le       = filter.Le
	Gt       = filter.Gt
	Ge       = filter.Ge
	In       = filter.In
	Exists   = filter.Exists
	Prefix   = filter.Prefix
	Suffix   = filter.Suffix
	Contains = filter.Contains
)

// AttrLocation is the conventional location attribute name.
const AttrLocation = filter.AttrLocation

// Movement graph and location-model constructors.
var (
	// NewGraph returns an empty movement graph.
	NewGraph = movement.NewGraph
	// Line, Ring, Grid, Star build standard movement graphs.
	Line = movement.Line
	Ring = movement.Ring
	Grid = movement.Grid
	Star = movement.Star
	// NewLocationModel returns an empty location model.
	NewLocationModel = location.NewModel
	// OfficeFloor builds the paper's office-floor location model.
	OfficeFloor = location.OfficeFloor
	// Regions assigns one same-named region per broker.
	Regions = location.Regions
	// StampLocation tags a notification with a location.
	StampLocation = location.Stamp
)
