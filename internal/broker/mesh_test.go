package broker

import (
	"fmt"
	"reflect"
	"testing"

	"rebeca/internal/dedup"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// diamondChord is the canonical mesh fixture: a diamond b1-b2-b4-b3-b1
// with the chord b2-b3. Two redundant cycles.
func diamondChord() (members []message.NodeID, edges [][2]message.NodeID) {
	members = []message.NodeID{"b1", "b2", "b3", "b4"}
	edges = [][2]message.NodeID{
		{"b1", "b2"}, {"b1", "b3"}, {"b2", "b4"}, {"b3", "b4"}, {"b2", "b3"},
	}
	return
}

func TestMeshElectionDeterministic(t *testing.T) {
	members, edges := diamondChord()
	// Every broker runs the same election over the same inputs; the trees
	// they derive must agree edge by edge: a considers b a tree neighbor
	// iff b considers a one.
	active := make(map[message.NodeID]map[message.NodeID]bool)
	for _, self := range members {
		m := NewMesh(self)
		m.SetTopology(members, edges)
		a, hops := m.Compute()
		active[self] = a
		// Every other member must be reachable through the tree.
		for _, other := range members {
			if other == self {
				continue
			}
			if _, ok := hops[other]; !ok {
				t.Errorf("%s: no next hop toward %s", self, other)
			}
		}
	}
	for _, a := range members {
		for _, b := range members {
			if active[a][b] != active[b][a] {
				t.Errorf("tree disagreement on edge %s-%s: %v vs %v",
					a, b, active[a][b], active[b][a])
			}
		}
	}
	// BFS from root b1, neighbors sorted: b1-b2 and b1-b3 are tree edges,
	// b4 attaches under b2. The chord b2-b3 and the edge b3-b4 stay out.
	if !active["b1"]["b2"] || !active["b1"]["b3"] {
		t.Errorf("root edges not elected: %v", active["b1"])
	}
	if !active["b2"]["b4"] || active["b3"]["b4"] {
		t.Errorf("b4 should attach under b2: b2=%v b3=%v", active["b2"], active["b4"])
	}
	if active["b2"]["b3"] {
		t.Error("chord b2-b3 elected into the tree")
	}
}

func TestMeshReElectionOnLinkDown(t *testing.T) {
	members, edges := diamondChord()
	m := NewMesh("b4")
	m.SetTopology(members, edges)
	a, _ := m.Compute()
	if !a["b2"] || a["b3"] {
		t.Fatalf("initial tree neighbors of b4 = %v", a)
	}

	// b2 floods: its edge to b4 died. b4's replica folds the record in and
	// the next election must route b4 through b3 instead.
	msg := proto.Message{Kind: proto.KLinkState, Origin: "b2", Client: "b4", Epoch: 1, Stale: true}
	fresh, changed := m.Apply(msg)
	if !fresh || !changed {
		t.Fatalf("Apply(down) = fresh %v changed %v", fresh, changed)
	}
	a, hops := m.Compute()
	if a["b2"] || !a["b3"] {
		t.Fatalf("tree neighbors after b2-b4 down = %v", a)
	}
	if hops["b1"] != "b3" {
		t.Errorf("next hop toward root = %s, want b3", hops["b1"])
	}

	// A duplicate of the same record is neither fresh nor a change; an
	// older epoch never regresses the map.
	if fresh, changed := m.Apply(msg); fresh || changed {
		t.Errorf("replayed record = fresh %v changed %v", fresh, changed)
	}
	stale := proto.Message{Kind: proto.KLinkState, Origin: "b2", Client: "b4", Epoch: 0, Stale: false}
	if fresh, _ := m.Apply(stale); fresh {
		t.Error("stale epoch accepted")
	}

	// The heal record (same edge, higher epoch, up) restores the original
	// tree.
	heal := proto.Message{Kind: proto.KLinkState, Origin: "b2", Client: "b4", Epoch: 2, Stale: false}
	if fresh, changed := m.Apply(heal); !fresh || !changed {
		t.Fatalf("heal not applied")
	}
	a, _ = m.Compute()
	if !a["b2"] || a["b3"] {
		t.Errorf("tree after heal = %v", a)
	}
}

func TestMeshReportLocalVersioning(t *testing.T) {
	m := NewMesh("b1")
	m.SetTopology([]message.NodeID{"b1", "b2"}, [][2]message.NodeID{{"b1", "b2"}})
	msg, changed := m.ReportLocal("b2", true)
	if !changed || msg.Kind != proto.KLinkState || msg.Origin != "b1" ||
		msg.Client != "b2" || !msg.Stale || msg.Epoch != 1 {
		t.Fatalf("first report = %+v changed %v", msg, changed)
	}
	if msg.Dest != "" {
		t.Fatal("link-state record must leave Dest empty (a set Dest unicast-routes the flood)")
	}
	// Unchanged observation: no flood.
	if _, changed := m.ReportLocal("b2", true); changed {
		t.Error("repeated observation reported as change")
	}
	up, changed := m.ReportLocal("b2", false)
	if !changed || up.Stale || up.Epoch != 2 {
		t.Errorf("heal report = %+v changed %v", up, changed)
	}
}

func TestMeshPartitionElectsOwnRoot(t *testing.T) {
	// Line b1-b2-b3-b4 (as a degenerate mesh). Cutting b2-b3 splits it;
	// each side keeps a tree over its own component.
	members := []message.NodeID{"b1", "b2", "b3", "b4"}
	edges := [][2]message.NodeID{{"b1", "b2"}, {"b2", "b3"}, {"b3", "b4"}}
	m := NewMesh("b4")
	m.SetTopology(members, edges)
	m.Apply(proto.Message{Kind: proto.KLinkState, Origin: "b2", Client: "b3", Epoch: 1, Stale: true})
	a, hops := m.Compute()
	if !a["b3"] {
		t.Errorf("b4's surviving component tree = %v", a)
	}
	if _, ok := hops["b1"]; ok {
		t.Error("next hop across the partition retained")
	}
}

func TestMeshSetTopologyChangeDetection(t *testing.T) {
	members, edges := diamondChord()
	m := NewMesh("b1")
	if !m.SetTopology(members, edges) {
		t.Fatal("initial topology not a change")
	}
	if m.SetTopology(members, edges) {
		t.Error("identical topology reported as change")
	}
	// Member departure is a change, and it drops that reporter's records.
	m.Apply(proto.Message{Kind: proto.KLinkState, Origin: "b4", Client: "b2", Epoch: 9, Stale: true})
	if !m.SetTopology([]message.NodeID{"b1", "b2", "b3"},
		[][2]message.NodeID{{"b1", "b2"}, {"b1", "b3"}, {"b2", "b3"}}) {
		t.Error("member departure not a change")
	}
	if len(m.reports["b4"]) != 0 {
		t.Error("departed reporter's records survive")
	}
	// Self-loops and edges to unknown members are dropped on input.
	m2 := NewMesh("b1")
	m2.SetTopology([]message.NodeID{"b1", "b2"},
		[][2]message.NodeID{{"b1", "b1"}, {"b1", "bX"}, {"b1", "b2"}})
	if len(m2.edges) != 1 {
		t.Errorf("edge filtering kept %d edges", len(m2.edges))
	}
}

// meshStar is a mesh broker X with tree links to P, Q and R, a local
// subscriber port s and, when sub is set, subscriptions from s and R to
// every note. to collects what X sends, per destination.
func meshStar(sub bool, stages ...Middleware) (b *Broker, to map[message.NodeID][]proto.Message) {
	to = make(map[message.NodeID][]proto.Message)
	b = New(Config{ID: "X", Peers: []message.NodeID{"P", "Q", "R"},
		Send: func(dst message.NodeID, m proto.Message) { to[dst] = append(to[dst], m) }})
	b.EnableMesh()
	b.SetMeshTopology([]message.NodeID{"X", "P", "Q", "R"},
		[][2]message.NodeID{{"X", "P"}, {"X", "Q"}, {"X", "R"}})
	for _, st := range stages {
		b.UseMiddleware(st)
	}
	if sub {
		b.AttachPort("s")
		b.HandleMessage("s", subMsg("s/s1"))
		b.HandleMessage("R", subMsg("r/s1"))
	}
	clear(to)
	return b, to
}

// notePub is a publish of publisher pub's note seq.
func notePub(pub message.NodeID, seq uint64, stale bool) proto.Message {
	m := pubMsg(seq)
	m.Note.ID.Publisher = pub
	m.Stale = stale
	return m
}

// carrying counts the messages of kind k carrying note id.
func carrying(msgs []proto.Message, k proto.Kind, id message.NotificationID) int {
	n := 0
	for _, m := range msgs {
		if m.Kind == k && m.Note != nil && m.Note.ID == id {
			n++
		}
	}
	return n
}

// TestMeshMemoryOutlastsOtherPublishers: a flood copy that arrives after
// 9 000 notes of 100 other publishers — more than meshWindow in all — still
// meets the broker's memory of its first copy, so it is neither delivered
// to the local port nor sent to R a second time.
func TestMeshMemoryOutlastsOtherPublishers(t *testing.T) {
	b, to := meshStar(true)
	a1 := message.NotificationID{Publisher: "a", Seq: 1}
	b.HandleMessage("P", notePub("a", 1, false))
	for i := 0; i < 9000; i++ {
		b.HandleMessage("P", notePub(message.NodeID(fmt.Sprintf("o%02d", i%100)), uint64(i/100+1), false))
	}
	b.HandleMessage("Q", notePub("a", 1, true))
	if got, sent := carrying(to["s"], proto.KDeliver, a1), carrying(to["R"], proto.KPublish, a1); got != 1 || sent != 1 {
		t.Errorf("a#1 delivered %d times to the local port and sent %d times to R, want 1 and 1", got, sent)
	}
}

// TestMeshBelowFloorCounted: a copy of a note its publisher has since
// outrun by more than meshWindow is neither delivered nor spread, whether
// it arrives as a flood copy or comes back from a demoted link's pending
// queue, and each such copy is counted.
func TestMeshBelowFloorCounted(t *testing.T) {
	tally := &MechanismTally{}
	b, to := meshStar(true, tally)
	for seq := uint64(1); seq <= meshWindow+1; seq++ {
		b.HandleMessage("P", notePub("a", seq, false))
	}
	clear(to)
	b.HandleMessage("Q", notePub("a", 1, true))
	b.ReforwardPending("R", []proto.Message{notePub("a", 1, false)})
	if len(to) != 0 {
		t.Errorf("a copy below the floor went out: %v", to)
	}
	if got := tally.At("X", MeshBelowFloor); got != 2 {
		t.Errorf("%s = %d, want 2", MeshBelowFloor, got)
	}
	if got := tally.At("X", MeshPublishersEvicted); got != 0 {
		t.Errorf("%s = %d with one publisher, want 0", MeshPublishersEvicted, got)
	}
}

// TestMeshPublishersEvictedCounted: one publisher past dedup.MaxPublishers
// evicts the least recently recorded one, and the eviction is counted.
func TestMeshPublishersEvictedCounted(t *testing.T) {
	tally := &MechanismTally{}
	b, _ := meshStar(false, tally)
	for i := 0; i <= dedup.MaxPublishers; i++ {
		b.HandleMessage("P", notePub(message.NodeID(fmt.Sprintf("p%04d", i)), 1, false))
	}
	if got := tally.At("X", MeshPublishersEvicted); got != 1 {
		t.Errorf("%s = %d, want 1", MeshPublishersEvicted, got)
	}
	if _, seen := b.seen.Find(message.NotificationID{Publisher: "p0000", Seq: 1}); seen {
		t.Error("the least recently recorded publisher was not the one evicted")
	}
}

func TestSeenSetEviction(t *testing.T) {
	b, _ := meshStar(false)
	mkID := func(pub message.NodeID, i int) message.NotificationID {
		return message.NotificationID{Publisher: pub, Seq: uint64(i + 1)}
	}
	find := func(id message.NotificationID) *seenEntry {
		e, _ := b.seen.Find(id)
		return e
	}
	for i := 0; i < meshWindow; i++ {
		b.remember(mkID("p", i))
	}
	// Other publishers' notes evict nothing of p's.
	for i := 0; i < 3*meshWindow; i++ {
		b.remember(mkID(message.NodeID(fmt.Sprintf("q%d", i%3)), i/3))
	}
	if find(mkID("p", 0)) == nil || find(mkID("p", meshWindow-1)) == nil {
		t.Fatal("entries lost within the publisher's window")
	}
	// One past p's window drops p's oldest, keeps everything else.
	b.remember(mkID("p", meshWindow))
	if e, seen := b.seen.Find(mkID("p", 0)); e != nil || !seen {
		t.Errorf("oldest entry: %v, seen %v; want no entry, below the floor", e, seen)
	}
	if find(mkID("p", 1)) == nil || find(mkID("p", meshWindow)) == nil {
		t.Error("eviction took the wrong entry")
	}
	// The per-entry forwarding memory persists across lookups.
	e := find(mkID("p", 5))
	b.markSent(e, "b2")
	if !b.sentOn(find(mkID("p", 5)), "b2") {
		t.Error("sent-link memory not shared")
	}
	if b.sentOn(find(mkID("p", 6)), "b2") || b.sentOn(e, "b3") {
		t.Error("sent-link memory leaks across entries or links")
	}
	// A window later mkID(5)'s slot holds a new notification: the new
	// tenant must not inherit the old one's links.
	for i := meshWindow + 1; i <= 5+meshWindow; i++ {
		b.remember(mkID("p", i))
	}
	if find(mkID("p", 5)) != nil || find(mkID("p", 5+meshWindow)) != e {
		t.Fatal("the slot was not reused")
	}
	if e.sent != 0 || e.over != nil {
		t.Errorf("reused slot kept its previous tenant's memory: %+v", *e)
	}
}

// TestSeenSetManyLinks: link numbers past the 64-bit mask land in the
// overflow set and behave the same — per entry, per link, cleared on reuse.
func TestSeenSetManyLinks(t *testing.T) {
	b, _ := meshStar(false)
	peer := func(i int) message.NodeID { return message.NodeID(fmt.Sprintf("b%02d", i)) }
	id := func(seq uint64) message.NotificationID { return message.NotificationID{Publisher: "p", Seq: seq} }
	find := func(seq uint64) *seenEntry {
		e, _ := b.seen.Find(id(seq))
		return e
	}
	b.remember(id(1))
	b.remember(id(2))
	odd, all := find(1), find(2)
	for i := 0; i < 70; i++ {
		if i%2 == 1 {
			b.markSent(odd, peer(i))
		}
		b.markSent(all, peer(i))
	}
	for i := 0; i < 70; i++ {
		if got := b.sentOn(odd, peer(i)); got != (i%2 == 1) {
			t.Errorf("odd entry, link %d: sentOn = %v", i, got)
		}
		if !b.sentOn(all, peer(i)) {
			t.Errorf("full entry, link %d: not remembered", i)
		}
	}
	if b.sentOn(all, "stranger") {
		t.Error("a link never sent on reads as sent")
	}
	if len(all.over) != 6 {
		t.Errorf("overflow set holds %d links, want the 6 numbered 64..69", len(all.over))
	}
	for seq := uint64(3); seq <= 2+meshWindow; seq++ {
		b.remember(id(seq))
	}
	if all = find(2 + meshWindow); all.over != nil || b.sentOn(all, peer(69)) || b.sentOn(all, peer(0)) {
		t.Errorf("reused slot kept its overflow set: %+v", *all)
	}
}

func TestMeshNeighborsDeclaredNotTree(t *testing.T) {
	members, edges := diamondChord()
	m := NewMesh("b2")
	m.SetTopology(members, edges)
	// Flood targets are the declared neighbors — chord included — so a
	// link-state record spreads even when the dead link was a tree link.
	got := m.Neighbors("b2")
	want := []message.NodeID{"b1", "b3", "b4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(b2) = %v, want %v", got, want)
	}
}

func TestMeshScalesBeyondFixture(t *testing.T) {
	// A 3x3 grid mesh: all nine brokers must be spanned whatever the
	// replica's vantage point, and every replica agrees on the tree.
	var members []message.NodeID
	for i := 0; i < 9; i++ {
		members = append(members, message.NodeID(fmt.Sprintf("g%d", i)))
	}
	var edges [][2]message.NodeID
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			i := r*3 + c
			if c < 2 {
				edges = append(edges, [2]message.NodeID{members[i], members[i+1]})
			}
			if r < 2 {
				edges = append(edges, [2]message.NodeID{members[i], members[i+3]})
			}
		}
	}
	ref := make(map[message.NodeID]map[message.NodeID]bool)
	for _, self := range members {
		m := NewMesh(self)
		m.SetTopology(members, edges)
		a, hops := m.Compute()
		ref[self] = a
		if len(hops) != len(members)-1 {
			t.Fatalf("%s: %d next hops, want %d", self, len(hops), len(members)-1)
		}
	}
	treeEdges := 0
	for _, a := range members {
		for _, b := range members {
			if ref[a][b] != ref[b][a] {
				t.Fatalf("grid tree disagreement on %s-%s", a, b)
			}
			if a < b && ref[a][b] {
				treeEdges++
			}
		}
	}
	if treeEdges != len(members)-1 {
		t.Errorf("elected %d tree edges, want %d", treeEdges, len(members)-1)
	}
}
