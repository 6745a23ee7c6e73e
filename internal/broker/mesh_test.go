package broker

import (
	"fmt"
	"reflect"
	"testing"

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

func TestSeenSetEviction(t *testing.T) {
	s := newSeenSet()
	mkID := func(i int) message.NotificationID {
		return message.NotificationID{Publisher: "p", Seq: uint64(i + 1)}
	}
	for i := 0; i < seenCap; i++ {
		s.record(mkID(i))
	}
	if s.lookup(mkID(0)) == nil || s.lookup(mkID(seenCap-1)) == nil {
		t.Fatal("entries lost before capacity")
	}
	// One past capacity evicts the oldest, keeps everything else.
	s.record(mkID(seenCap))
	if s.lookup(mkID(0)) != nil {
		t.Error("oldest entry not evicted")
	}
	if s.lookup(mkID(1)) == nil || s.lookup(mkID(seenCap)) == nil {
		t.Error("eviction took the wrong entry")
	}
	if len(s.byID) != seenCap {
		t.Errorf("index size %d, want %d", len(s.byID), seenCap)
	}
	// The per-entry forwarding memory persists across lookups.
	e := s.lookup(mkID(5))
	s.markSent(e, "b2")
	if !s.sentOn(s.lookup(mkID(5)), "b2") {
		t.Error("sent-link memory not shared")
	}
	if s.sentOn(s.lookup(mkID(6)), "b2") || s.sentOn(e, "b3") {
		t.Error("sent-link memory leaks across entries or links")
	}
	// Wrap-around hands mkID(5)'s ring slot to a new notification: the new
	// tenant must not inherit the old one's links.
	for i := seenCap + 1; s.lookup(mkID(5)) != nil; i++ {
		s.record(mkID(i))
	}
	if e.id == mkID(5) || e.sent != 0 || e.over != nil {
		t.Errorf("reused ring slot kept its previous tenant's memory: %+v", *e)
	}
}

// TestSeenSetManyLinks: link numbers past the 64-bit mask land in the
// overflow set and behave the same — per entry, per link, cleared on reuse.
func TestSeenSetManyLinks(t *testing.T) {
	s := newSeenSet()
	peer := func(i int) message.NodeID { return message.NodeID(fmt.Sprintf("b%02d", i)) }
	odd := s.record(message.NotificationID{Publisher: "p", Seq: 1})
	all := s.record(message.NotificationID{Publisher: "p", Seq: 2})
	for i := 0; i < 70; i++ {
		if i%2 == 1 {
			s.markSent(odd, peer(i))
		}
		s.markSent(all, peer(i))
	}
	for i := 0; i < 70; i++ {
		if got := s.sentOn(odd, peer(i)); got != (i%2 == 1) {
			t.Errorf("odd entry, link %d: sentOn = %v", i, got)
		}
		if !s.sentOn(all, peer(i)) {
			t.Errorf("full entry, link %d: not remembered", i)
		}
	}
	if s.sentOn(all, "stranger") {
		t.Error("a link never sent on reads as sent")
	}
	if len(all.over) != 6 {
		t.Errorf("overflow set holds %d links, want the 6 numbered 64..69", len(all.over))
	}
	for i := 0; i < seenCap; i++ {
		s.record(message.NotificationID{Publisher: "q", Seq: uint64(i + 1)})
	}
	if all.over != nil || s.sentOn(all, peer(69)) || s.sentOn(all, peer(0)) {
		t.Errorf("reused ring slot kept its overflow set: %+v", *all)
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
