// Mesh mode lifts the acyclic-overlay restriction (§2): brokers on an
// arbitrary connected graph elect a spanning tree and route on it, with
// redundant edges as hot standbys. The election is distributed but
// deterministic — every broker runs the same BFS (root = lowest member
// ID, neighbors in sorted order) over the same replicated inputs: the
// member/edge sets from the discovery registry and a flooded link-state
// map (KLinkState records, versioned per reporter). When an edge dies,
// its endpoints flood the observation, every broker recomputes the same
// new tree, standby links take over, and three repair mechanisms close
// the transition window without duplicates or gaps:
//
//   - Routing repair: links entering the tree re-run the sync handshake's
//     state replay (overlay Resync); the replayed subscribes propagate
//     through the new tree and *flip* stale table entries toward the new
//     paths (the relocation flip wave — no unsubscribe race, so there is
//     never a route-less window).
//   - Flood fallback: a publish that matches a table entry still pointing
//     at a deactivated link is promoted to a flood copy (Message.Stale)
//     that spreads over every tree link — including back up the arrival
//     link, because the upstream hops carried the note as a unicast and
//     their side branches were never covered. Brokers remember which
//     links each recent notification was forwarded on (the forwarding
//     memory, a dedup.Window per publisher), so flood copies reach
//     uncovered subtrees but never loop and never deliver twice.
//   - Pending re-route: traffic queued toward a link that left the tree
//     is taken back from the overlay manager and re-flooded on the new
//     tree, so a cut link's backlog is not stranded until heal.
package broker

import (
	"fmt"
	"sync/atomic"

	"rebeca/internal/dedup"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
)

// meshEdge is an undirected broker pair, normalized A < B.
type meshEdge struct{ A, B message.NodeID }

func mkMeshEdge(x, y message.NodeID) meshEdge {
	if x < y {
		return meshEdge{A: x, B: y}
	}
	return meshEdge{A: y, B: x}
}

// linkReport is one reporter's latest versioned observation of an edge.
type linkReport struct {
	seq  uint64
	down bool
}

// Mesh is one broker's replica of the shared election inputs and the
// deterministic spanning-tree computation over them. Like the Broker
// that owns it, it is driven from a single goroutine (the broker's event
// loop); only the recomputation counter is read concurrently (telemetry
// scrapes).
type Mesh struct {
	self    message.NodeID
	members map[message.NodeID]bool
	edges   map[meshEdge]bool
	// reports holds the latest link-state record per (reporter, edge).
	// An edge is usable unless some reporter's latest record marks it
	// down — optimistic default, so freshly declared edges carry traffic
	// (queued by the overlay until established) without waiting for a
	// proof of life; registry membership is the authority on dead nodes.
	reports    map[message.NodeID]map[meshEdge]linkReport
	seq        uint64 // own report sequence
	recomputes atomic.Uint64
}

// NewMesh returns an empty mesh replica for the given broker.
func NewMesh(self message.NodeID) *Mesh {
	return &Mesh{
		self:    self,
		members: map[message.NodeID]bool{self: true},
		edges:   make(map[meshEdge]bool),
		reports: make(map[message.NodeID]map[meshEdge]linkReport),
	}
}

// SetTopology replaces the member and edge sets (a discovery snapshot)
// and reports whether anything changed. Reports from departed members
// are dropped with them.
func (m *Mesh) SetTopology(members []message.NodeID, edges [][2]message.NodeID) bool {
	nm := make(map[message.NodeID]bool, len(members)+1)
	nm[m.self] = true
	for _, id := range members {
		nm[id] = true
	}
	ne := make(map[meshEdge]bool, len(edges))
	for _, e := range edges {
		if nm[e[0]] && nm[e[1]] && e[0] != e[1] {
			ne[mkMeshEdge(e[0], e[1])] = true
		}
	}
	changed := len(nm) != len(m.members) || len(ne) != len(m.edges)
	if !changed {
		for id := range nm {
			if !m.members[id] {
				changed = true
				break
			}
		}
	}
	if !changed {
		for e := range ne {
			if !m.edges[e] {
				changed = true
				break
			}
		}
	}
	if !changed {
		return false
	}
	m.members, m.edges = nm, ne
	for reporter := range m.reports {
		if !nm[reporter] {
			delete(m.reports, reporter)
		}
	}
	return true
}

// ReportLocal records this broker's observation of its incident edge to
// peer and returns the KLinkState flood message; changed is false when
// the observation matches what is already recorded (no flood needed).
func (m *Mesh) ReportLocal(peer message.NodeID, down bool) (proto.Message, bool) {
	e := mkMeshEdge(m.self, peer)
	own := m.reports[m.self]
	if own == nil {
		own = make(map[meshEdge]linkReport)
		m.reports[m.self] = own
	}
	if cur, ok := own[e]; ok && cur.down == down {
		return proto.Message{}, false
	}
	m.seq++
	own[e] = linkReport{seq: m.seq, down: down}
	// The edge is identified by Origin (the reporter) and Client (the far
	// end) — never Dest, which would make the record look like a unicast
	// in transit to the brokers relaying the flood.
	msg := proto.Message{
		Kind: proto.KLinkState, Origin: m.self, Client: peer,
		Epoch: m.seq, Stale: down,
	}
	return msg, true
}

// IsMember reports whether id is a known mesh broker.
func (m *Mesh) IsMember(id message.NodeID) bool { return m.members[id] }

// Apply folds a flooded KLinkState record in. fresh reports a record
// newer than anything stored for that (reporter, edge) — only fresh
// records re-flood; changed reports that the usable-edge set actually
// moved — only then is a recompute due.
func (m *Mesh) Apply(msg proto.Message) (fresh, changed bool) {
	reporter := msg.Origin
	if reporter == "" || reporter == m.self {
		return false, false
	}
	e := mkMeshEdge(reporter, msg.Client)
	if e.A == "" || e.A == e.B {
		return false, false
	}
	rm := m.reports[reporter]
	if rm == nil {
		rm = make(map[meshEdge]linkReport)
		m.reports[reporter] = rm
	}
	cur, ok := rm[e]
	if ok && msg.Epoch <= cur.seq {
		return false, false
	}
	rm[e] = linkReport{seq: msg.Epoch, down: msg.Stale}
	return true, !ok || cur.down != msg.Stale
}

// edgeDown reports whether any reporter's latest record marks e down.
func (m *Mesh) edgeDown(e meshEdge) bool {
	for _, rm := range m.reports {
		if r, ok := rm[e]; ok && r.down {
			return true
		}
	}
	return false
}

// Neighbors returns the declared mesh neighbors of a node (every
// incident edge's far end, up or down) — the flood targets for
// KLinkState records.
func (m *Mesh) Neighbors(id message.NodeID) []message.NodeID {
	var out []message.NodeID
	for e := range m.edges {
		switch id {
		case e.A:
			out = append(out, e.B)
		case e.B:
			out = append(out, e.A)
		}
	}
	sortNodeIDs(out)
	return out
}

// Compute runs the deterministic election: BFS over usable edges from
// the lowest member ID of each connected component, neighbors in sorted
// order. It returns this broker's tree neighbors and its next-hop table
// over its component's tree. Under a partition every component elects its
// own tree (rooted at its lowest ID), so survivors keep forwarding among
// themselves; next hops never cross a partition.
func (m *Mesh) Compute() (active map[message.NodeID]bool, hops map[message.NodeID]message.NodeID) {
	m.recomputes.Add(1)
	// Usable adjacency.
	adj := make(map[message.NodeID][]message.NodeID, len(m.members))
	for e := range m.edges {
		if m.members[e.A] && m.members[e.B] && !m.edgeDown(e) {
			adj[e.A] = append(adj[e.A], e.B)
			adj[e.B] = append(adj[e.B], e.A)
		}
	}
	for _, ns := range adj {
		sortNodeIDs(ns)
	}
	members := make([]message.NodeID, 0, len(m.members))
	for id := range m.members {
		members = append(members, id)
	}
	sortNodeIDs(members)
	// BFS per component, rooted at each component's lowest member ID —
	// parent[] assignment defines the forest. Under a partition every
	// component elects its own tree (its lowest ID is its root), so the
	// survivors keep forwarding among themselves; the member list is
	// walked in sorted order, which makes the component roots — and with
	// them the whole forest — deterministic across replicas.
	parent := make(map[message.NodeID]message.NodeID, len(members))
	treeAdj := make(map[message.NodeID][]message.NodeID)
	for _, root := range members {
		if _, ok := parent[root]; ok {
			continue
		}
		parent[root] = root
		queue := []message.NodeID{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, n := range adj[cur] {
				if _, ok := parent[n]; ok {
					continue
				}
				parent[n] = cur
				treeAdj[cur] = append(treeAdj[cur], n)
				treeAdj[n] = append(treeAdj[n], cur)
				queue = append(queue, n)
			}
		}
	}
	active = make(map[message.NodeID]bool, len(treeAdj[m.self]))
	for _, n := range treeAdj[m.self] {
		active[n] = true
	}
	// Next hops: BFS on the tree from self.
	hops = make(map[message.NodeID]message.NodeID)
	type qe struct{ node, first message.NodeID }
	seen := map[message.NodeID]bool{m.self: true}
	var q []qe
	for _, n := range treeAdj[m.self] {
		seen[n] = true
		q = append(q, qe{node: n, first: n})
	}
	for len(q) > 0 {
		cur := q[0]
		q = q[1:]
		hops[cur.node] = cur.first
		for _, n := range treeAdj[cur.node] {
			if !seen[n] {
				seen[n] = true
				q = append(q, qe{node: n, first: cur.first})
			}
		}
	}
	return active, hops
}

// Recomputations counts spanning-tree elections run — the
// rebeca_spanning_tree_recomputations_total feed. Safe for concurrent
// reads.
func (m *Mesh) Recomputations() uint64 { return m.recomputes.Load() }

// --- cycle-safe forwarding memory --------------------------------------

// meshWindow is the forwarding memory's window per publisher: a broker
// remembers a notification until its publisher has published 8192 more.
// At steady state a notification clears the overlay in well under the time
// its publisher takes for 8k publishes, so the window covers re-election
// transients whatever the other publishers send meanwhile.
const meshWindow = 8192

// seenEntry is the forwarding memory's payload for one recent
// notification: the links it was already forwarded on (so flood copies
// never retrace a link); that it has an entry at all records that its
// local delivery decision was made (so no copy delivers twice). The links
// are a set of the broker's seenLinks numbers: a bitmask for numbers below
// 64, a lazily allocated map for the rest. The zero entry is an empty
// memory — what an unidentified (zero-ID) note gets, off the window.
type seenEntry struct {
	sent uint64
	over map[int]bool
}

// remember records a first-seen notification in the broker's forwarding
// memory, counting the publisher it evicts if the window's publisher table
// is full. The window keeps the publisher as a map key long after the
// publish, so it is an interned copy, never a string aliasing a relay-form
// note's bytes.
func (b *Broker) remember(id message.NotificationID) *seenEntry {
	id.Publisher = message.NodeID(b.names.Intern(string(id.Publisher)))
	e, evicted := b.seen.Record(id)
	if evicted {
		b.NotifyMechanism(MeshPublishersEvicted, 1)
	}
	return e
}

// sentOn reports whether e's notification already traveled the link to p.
func (b *Broker) sentOn(e *seenEntry, p message.NodeID) bool {
	n, ok := b.seenLinks[p]
	if !ok {
		return false
	}
	if n < 64 {
		return e.sent&(1<<n) != 0
	}
	return e.over[n]
}

// markSent notes that e's notification travels the link to p.
func (b *Broker) markSent(e *seenEntry, p message.NodeID) {
	n, ok := b.seenLinks[p]
	if !ok {
		n = len(b.seenLinks)
		b.seenLinks[p] = n
	}
	if n < 64 {
		e.sent |= 1 << n
		return
	}
	if e.over == nil {
		e.over = make(map[int]bool)
	}
	e.over[n] = true
}

// --- broker integration -------------------------------------------------

// EnableMesh switches the broker to mesh routing: a Mesh replica is
// installed, the bounded forwarding memory activates, and b.peers /
// next hops are henceforth owned by the spanning-tree election
// (SetMeshTopology) instead of the static config.
func (b *Broker) EnableMesh() {
	if b.mesh != nil {
		return
	}
	b.mesh = NewMesh(b.cfg.ID)
	b.seen = dedup.New[seenEntry](meshWindow)
	b.seenLinks = make(map[message.NodeID]int)
	b.waves = make(map[string]uint64)
}

// Mesh exposes the mesh replica (telemetry, tests); nil without
// EnableMesh.
func (b *Broker) Mesh() *Mesh { return b.mesh }

// OnTreeChange registers the hosting runtime's tree-transition hook:
// added and removed name the peers whose links entered/left this
// broker's spanning-tree neighborhood. Hosts resync added links
// (overlay.Manager.Resync) and re-route removed links' pending backlog
// (TakePending + ReforwardPending).
func (b *Broker) OnTreeChange(fn func(added, removed []message.NodeID)) {
	b.onTreeChange = fn
}

// RepairTreeThrough makes tree transitions repair through the overlay
// manager that owns this broker's links — the glue every mesh host needs:
// links promoted into the tree resync their routing state, and traffic
// queued on demoted links re-floods on the new tree so nothing waits out a
// dead link's pending queue.
func (b *Broker) RepairTreeThrough(ov *overlay.Manager) {
	b.OnTreeChange(func(added, removed []message.NodeID) {
		for _, p := range added {
			ov.Resync(p)
		}
		for _, p := range removed {
			if msgs := ov.TakePending(p); len(msgs) > 0 {
				b.ReforwardPending(p, msgs)
			}
		}
	})
}

// SetMeshTopology feeds a discovery membership snapshot into the mesh
// and recomputes the tree if it moved.
func (b *Broker) SetMeshTopology(members []message.NodeID, edges [][2]message.NodeID) {
	if b.mesh == nil || !b.mesh.SetTopology(members, edges) {
		return
	}
	b.recomputeTree()
}

// meshLinkChange folds an overlay link transition into the link-state
// map. Only verdicts count: established = up; degraded, a handshake
// that timed out, or a removed peer = down. The initial
// closed→connecting ("peer added") and →handshaking transitions are in
// progress, not verdicts.
func (b *Broker) meshLinkChange(ev overlay.Event) {
	var down bool
	switch {
	case ev.To == overlay.StateEstablished:
		down = false
	case ev.To == overlay.StateDegraded || ev.To == overlay.StateClosed:
		down = true
	case ev.To == overlay.StateConnecting && ev.From == overlay.StateHandshaking:
		down = true
	default:
		return
	}
	msg, changed := b.mesh.ReportLocal(ev.Peer, down)
	if !changed {
		return
	}
	b.floodLinkState(msg, "")
	b.recomputeTree()
}

// handleLinkState processes a flooded KLinkState record: fresh records
// re-flood to every mesh neighbor except the arrival link; records that
// moved the usable-edge set trigger a recompute.
func (b *Broker) handleLinkState(from message.NodeID, m proto.Message) {
	if b.mesh == nil {
		return
	}
	fresh, changed := b.mesh.Apply(m)
	if !fresh {
		return
	}
	b.floodLinkState(m, from)
	if changed {
		b.recomputeTree()
	}
}

// floodLinkState sends a link-state record to every declared mesh
// neighbor except the arrival link. Declared — not just tree — links
// carry the flood, so the record still spreads when the tree link that
// died is the one being reported; down links queue it in the overlay's
// pending buffer (versioning discards it if stale by heal time).
func (b *Broker) floodLinkState(m proto.Message, except message.NodeID) {
	for _, p := range b.mesh.Neighbors(b.cfg.ID) {
		if p != except {
			b.Send(p, m)
		}
	}
}

// recomputeTree re-runs the election and applies the result: b.peers
// becomes the tree neighborhood (all forwarding — publishes,
// subscription propagation, sync replays — follows it), next hops are
// re-derived, and the host's tree-change hook fires with the diff.
func (b *Broker) recomputeTree() {
	active, hops := b.mesh.Compute()
	var added, removed []message.NodeID
	for p := range b.peers {
		if !active[p] {
			removed = append(removed, p)
		}
	}
	for p := range active {
		if !b.peers[p] {
			added = append(added, p)
		}
	}
	b.peers, b.peerList = active, nil
	b.cfg.NextHop = hops
	if len(added)+len(removed) > 0 {
		sortNodeIDs(added)
		sortNodeIDs(removed)
		if b.log != nil {
			b.log.Debug("spanning tree recomputed",
				"broker", b.cfg.ID, "added", fmt.Sprint(added), "removed", fmt.Sprint(removed),
				"recomputations", b.mesh.Recomputations())
		}
		// Table entries learned on removed links are NOT dropped or
		// unsubscribed here: the re-anchor wave below repairs them in
		// place, and until it lands a stale entry serves as the
		// flood-fallback trigger (see routePublishMesh) — an unsubscribe
		// wave would race the repair and open route-less windows.
		if b.onTreeChange != nil {
			b.onTreeChange(added, removed)
		}
	}
	// Every recompute re-anchors — even when this broker's own tree
	// neighborhood is unchanged. The brokers whose forwarding sets DID
	// change are elsewhere on the tree, and only the anchor can launch a
	// directionally authoritative wave at them.
	b.reanchor()
}

// reanchor re-issues every locally-anchored routing entry — client
// ports and detached ghost sessions, i.e. any entry whose link is not a
// mesh broker — over the current tree as a Fresh wave. Receivers flip
// stale entries toward the wave's arrival link and propagate it
// unconditionally (see handleSubscribe), so one wave per anchor repairs
// the whole component's routing after a tree change; handshake replays
// stay purely additive and cannot fight it. An entry pointing at a
// departed broker is re-claimed by whichever broker still holds it —
// the true border's own wave runs on the same recompute and re-points
// the path; a lost race degrades to the flood fallback, never to a lost
// notification.
//
// Replicas recompute at different times, so a wave can momentarily meet
// a tree that is not yet acyclic — some hop still counting a demoted
// edge as a tree link. Two guards make that harmless: each wave carries
// a per-anchor epoch (Origin, Epoch) that every broker processes at
// most once, so a wave crossing a transient cycle dies on the second
// visit instead of re-flipping entries forever; and the anchor itself
// never yields to an incoming wave (see handleSubscribe), so an echo
// cannot steal the port anchor. Within one epoch the flips trace the
// wave's own first-arrival tree — every entry points back along a real
// link toward the anchor — and a newer epoch overrides hop by hop.
func (b *Broker) reanchor() {
	b.waveSeq++
	for _, e := range b.router.Table().Entries() {
		if b.mesh.IsMember(e.Link) {
			continue
		}
		sub := e.Sub
		b.waves[string(b.cfg.ID)+"|"+string(sub.ID)] = b.waveSeq
		fw := proto.Message{Kind: proto.KSubscribe, Sub: &sub, Origin: b.cfg.ID, Epoch: b.waveSeq, Fresh: true}
		for p := range b.peers {
			b.Send(p, fw)
		}
	}
}

// forwardFlood spreads a flood copy of a publish to every tree link the
// notification has not already traveled (per its forwarding memory),
// excluding the arrival link, and records each transmission. This is
// how a flood copy covers subtrees the matched route missed without
// ever retracing a link.
func (b *Broker) forwardFlood(e *seenEntry, from message.NodeID, m proto.Message) {
	fw := m
	fw.Stale = true
	fw.Hops++
	for p := range b.peers {
		if p == from || b.sentOn(e, p) {
			continue
		}
		b.markSent(e, p)
		b.stats.Forwarded++
		b.Send(p, fw)
	}
}

// routePublishMesh is routePublish under mesh routing. Three cases:
//
//   - Flood copy (Message.Stale): spread to uncovered tree links and
//     deliver to matching local ports — content matching decides local
//     delivery but never prunes a flood's spread.
//   - Matched route intact (every matched broker link is in the current
//     tree): forward exactly as acyclic routing would, but through the
//     forwarding memory so a concurrently arriving flood copy can't
//     duplicate a link.
//   - Matched route broken (some entry points at a broker link outside
//     the current tree — a route the election deactivated before the
//     flip wave repaired the table): promote the publish to a flood
//     copy. The flood reaches every tree neighbor, a superset of the
//     intact matches, so nothing is lost and dedup keeps it exact.
//
// Same scratch discipline as routePublish: transport sends only while
// iterating the table-owned match result; deliveries run after.
func (b *Broker) routePublishMesh(from message.NodeID, m proto.Message) {
	id := noteID(&m)
	e, _ := b.seen.Find(id)
	if e == nil {
		// Unidentified note (zero ID): no cross-copy memory possible;
		// a throwaway entry still gives arrival-link exclusion (only a
		// peer link can be retraced; a port is not worth a link number).
		e = &seenEntry{}
		if b.peers[from] {
			b.markSent(e, from)
		}
	}
	var buf [4]routing.LinkMatch
	deliver := buf[:0]
	if m.Stale {
		b.forwardFlood(e, from, m)
		for _, lm := range b.matchPublish(&m, from) {
			if b.ports[lm.Link] {
				deliver = append(deliver, lm)
			}
		}
	} else {
		promote := false
		var fwdBuf [8]message.NodeID
		fwds := fwdBuf[:0]
		for _, lm := range b.matchPublish(&m, from) {
			switch {
			case b.peers[lm.Link]:
				fwds = append(fwds, lm.Link)
			case b.ports[lm.Link]:
				deliver = append(deliver, lm)
			case b.mesh.IsMember(lm.Link):
				promote = true
			default:
				// A stale entry for a detached port: skip.
			}
		}
		if promote {
			// No arrival-link exclusion on promotion: when the stale
			// route dead-ends here and the arrival link is the only tree
			// link left (a leaf after re-election), the flood MUST travel
			// back up it — upstream brokers crossed this note as a
			// unicast, so their other branches were never covered. The
			// forwarding memory keeps the bounce wave finite and the
			// first-sight delivery decision keeps it duplicate-free.
			b.NotifyDrop(message.NotificationID{
				Publisher: message.NodeID(b.names.Intern(string(id.Publisher))), Seq: id.Seq,
			}, "flood-fallback")
			if b.log != nil {
				b.log.Debug("flood fallback", "broker", b.cfg.ID, "note", id.String())
			}
			b.forwardFlood(e, "", m)
		} else {
			for _, p := range fwds {
				if b.sentOn(e, p) {
					continue
				}
				b.markSent(e, p)
				fw := m
				fw.Hops++
				b.stats.Forwarded++
				b.Send(p, fw)
			}
		}
	}
	b.deliverPublish(&m, deliver)
}

// ReforwardPending re-floods KPublish traffic that was queued toward a
// link that left the spanning tree. Forward-only (no local delivery —
// that decision was made when the message was first routed here), marked
// as flood copies so downstream brokers spread them to subtrees the old
// route never covered; their forwarding memory keeps every copy
// loop-free and delivery exactly-once.
func (b *Broker) ReforwardPending(removed message.NodeID, msgs []proto.Message) {
	if b.mesh == nil {
		return
	}
	for _, m := range msgs {
		if m.Kind != proto.KPublish || (m.Note == nil && m.RawNote == nil) {
			continue
		}
		fw := m
		fw.Stale = true
		fw.Hops++
		id := noteID(&m)
		e, seen := b.seen.Find(id)
		switch {
		case id.IsZero():
			e = &seenEntry{}
		case !seen:
			e = b.remember(id)
		case e == nil:
			// Below its publisher's floor: too old to tell which links it
			// traveled, so it is not spread again.
			b.NotifyMechanism(MeshBelowFloor, 1)
			continue
		}
		for p := range b.peers {
			if p != removed && !b.sentOn(e, p) {
				b.markSent(e, p)
				b.stats.Forwarded++
				b.Send(p, fw)
			}
		}
	}
}
