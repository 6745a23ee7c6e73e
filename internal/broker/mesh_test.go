package broker

import (
	"fmt"
	"reflect"
	"testing"

	"rebeca/internal/dedup"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
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
		a, hops, _ := m.Compute()
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
	a, _, _ := m.Compute()
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
	a, hops, _ := m.Compute()
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
	a, _, _ = m.Compute()
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

// down is the flooded record of reporter's edge to far going down.
func down(reporter, far message.NodeID, epoch uint64) proto.Message {
	return proto.Message{Kind: proto.KLinkState, Origin: reporter, Client: far, Epoch: epoch, Stale: true}
}

// TestMeshElectionPrefersUpEdges pins the election rule: up edges first,
// then a down edge only where no elected path joins its two sides. A cut
// that splits the graph therefore keeps one tree over it, with the cut
// edge in it, so the cut side's backlog waits on that link for the heal.
func TestMeshElectionPrefersUpEdges(t *testing.T) {
	ring := func(self message.NodeID) *Mesh {
		m := NewMesh(self)
		m.SetTopology([]message.NodeID{"b1", "b2", "b3", "b4"},
			[][2]message.NodeID{{"b1", "b2"}, {"b2", "b3"}, {"b3", "b4"}, {"b1", "b4"}})
		return m
	}
	t.Run("line, cut edge stays", func(t *testing.T) {
		m := NewMesh("b4")
		m.SetTopology([]message.NodeID{"b1", "b2", "b3", "b4"},
			[][2]message.NodeID{{"b1", "b2"}, {"b2", "b3"}, {"b3", "b4"}})
		m.Compute()
		m.Apply(down("b2", "b3", 1))
		a, hops, changed := m.Compute()
		if !a["b3"] || hops["b1"] != "b3" {
			t.Errorf("b4's tree links %v, next hop toward b1 %q; want [b3] and b3", a, hops["b1"])
		}
		if changed {
			t.Error("a cut on a forest changed the elected edge set")
		}
	})
	t.Run("ring, one cut leaves the cut edge out", func(t *testing.T) {
		m := ring("b2")
		m.Apply(down("b1", "b2", 1))
		a, hops, _ := m.Compute()
		if !reflect.DeepEqual(a, map[message.NodeID]bool{"b3": true}) || hops["b1"] != "b3" {
			t.Errorf("b2's tree links %v, next hop toward b1 %q; want [b3] and b3", a, hops["b1"])
		}
	})
	t.Run("ring, isolated broker rejoins through its lower edge", func(t *testing.T) {
		for _, self := range []message.NodeID{"b1", "b2", "b3"} {
			m := ring(self)
			m.Apply(down("b1", "b2", 1))
			m.Apply(down("b3", "b2", 1))
			if self != "b2" {
				// b2's own reports, as b2 floods them.
				m.Apply(down("b2", "b1", 1))
				m.Apply(down("b2", "b3", 2))
			} else {
				m.ReportLocal("b1", true)
				m.ReportLocal("b3", true)
			}
			a, _, _ := m.Compute()
			want := map[message.NodeID]map[message.NodeID]bool{
				"b1": {"b2": true, "b4": true}, "b2": {"b1": true}, "b3": {"b4": true},
			}[self]
			if !reflect.DeepEqual(a, want) {
				t.Errorf("%s's tree links = %v, want %v (b1-b2 joins b2, b2-b3 stays out)", self, a, want)
			}
		}
	})
	t.Run("unchanged edge set sends no wave", func(t *testing.T) {
		sent := 0
		b := New(Config{ID: "b4", Send: func(message.NodeID, proto.Message) { sent++ }})
		b.SetMeshTopology([]message.NodeID{"b1", "b2", "b3", "b4"},
			[][2]message.NodeID{{"b1", "b2"}, {"b2", "b3"}, {"b3", "b4"}})
		b.AttachPort("s")
		b.HandleMessage("s", subMsg("s/s1"))
		sent = 0
		b.HandleMessage("b3", down("b2", "b3", 1))
		b.HandleMessage("b3", proto.Message{Kind: proto.KLinkState, Origin: "b2", Client: "b3", Epoch: 2})
		if sent != 0 {
			t.Errorf("a flap on a forest sent %d messages, want no re-anchor wave and no flood", sent)
		}
		b = New(Config{ID: "b4", Send: func(_ message.NodeID, m proto.Message) {
			if m.Kind == proto.KSubscribe && m.Fresh {
				sent++
			}
		}})
		b.SetMeshTopology([]message.NodeID{"b1", "b2", "b3", "b4"},
			[][2]message.NodeID{{"b1", "b2"}, {"b2", "b3"}, {"b3", "b4"}, {"b1", "b4"}})
		b.AttachPort("s")
		b.HandleMessage("s", subMsg("s/s1"))
		b.HandleMessage("b1", down("b3", "b4", 1)) // b3-b4 is no tree edge
		b.HandleMessage("b1", proto.Message{Kind: proto.KLinkState, Origin: "b3", Client: "b4", Epoch: 2})
		if sent != 0 {
			t.Errorf("a flap off the ring's tree sent %d re-anchor waves, want 0", sent)
		}
		b.HandleMessage("b1", down("b1", "b2", 1)) // b1-b2 is
		if sent == 0 {
			t.Error("a cut on the ring's tree sent no re-anchor wave")
		}
	})
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

// TestForwardingMemoryFollowsCycles: a broker whose declared graph is a
// forest records no publish and floods no link state; the graph gaining a
// cycle starts a fresh memory and floods the link state kept meanwhile;
// losing it drops the memory again.
func TestForwardingMemoryFollowsCycles(t *testing.T) {
	to := make(map[message.NodeID][]proto.Message)
	b := New(Config{ID: "X", Send: func(dst message.NodeID, m proto.Message) { to[dst] = append(to[dst], m) }})
	members := []message.NodeID{"P", "Q", "X"}
	line := [][2]message.NodeID{{"P", "X"}, {"Q", "X"}}
	triangle := [][2]message.NodeID{{"P", "X"}, {"Q", "X"}, {"P", "Q"}}
	note := func(seq uint64) message.NotificationID { return message.NotificationID{Publisher: "a", Seq: seq} }
	remembered := func(seq uint64) bool {
		if b.seen == nil {
			return false
		}
		_, seen := b.seen.Find(note(seq))
		return seen
	}

	b.SetMeshTopology(members, line)
	b.HandleMessage("P", notePub("a", 1, false))
	b.NotifyLinkChange(overlay.Event{Peer: "Q", From: overlay.StateEstablished, To: overlay.StateDegraded})
	if b.seen != nil || len(to) != 0 {
		t.Fatalf("forest: memory %v, sent %v; want no memory and nothing sent", b.seen, to)
	}

	b.SetMeshTopology(members, triangle)
	if p := to["P"]; len(p) != 1 || p[0].Kind != proto.KLinkState || p[0].Client != "Q" || !p[0].Stale {
		t.Errorf("cycle: sent to P %v, want the record of X-Q down kept from the forest", to["P"])
	}
	b.HandleMessage("P", notePub("a", 2, false))
	if remembered(1) || !remembered(2) {
		t.Errorf("cycle: a#1 remembered %v, a#2 remembered %v; want a fresh memory holding a#2", remembered(1), remembered(2))
	}

	b.SetMeshTopology(members, line)
	b.HandleMessage("P", notePub("a", 3, false))
	if b.seen != nil {
		t.Error("forest again: the memory survived")
	}
	b.SetMeshTopology(members, triangle)
	if remembered(2) {
		t.Error("cycle again: the memory is not fresh")
	}
}

// meshStar is a broker X with tree links to P, Q and R on a graph with the
// cycle X-P-Z-Q-X (so its forwarding memory is on), a local subscriber
// port s and, when sub is set, subscriptions from s and R to every note.
// to collects what X sends, per destination.
func meshStar(sub bool, stages ...Middleware) (b *Broker, to map[message.NodeID][]proto.Message) {
	to = make(map[message.NodeID][]proto.Message)
	b = New(Config{ID: "X", Peers: []message.NodeID{"P", "Q", "R"},
		Send: func(dst message.NodeID, m proto.Message) { to[dst] = append(to[dst], m) }})
	b.SetMeshTopology([]message.NodeID{"X", "P", "Q", "R", "Z"},
		[][2]message.NodeID{{"X", "P"}, {"X", "Q"}, {"X", "R"}, {"P", "Z"}, {"Q", "Z"}})
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
		a, hops, _ := m.Compute()
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

// TestMeshReplayOffTreeInstallsNothing: on the triangle P-Q-X the election
// (root P) leaves X-Q out of the tree. A handshake replay over X-Q installs
// nothing and passes nothing on — a fill there would travel on as a plain
// subscription and flip correct entries at the next tree hop — while the
// same replay over the tree link X-P fills the table.
func TestMeshReplayOffTreeInstallsNothing(t *testing.T) {
	sent := 0
	b := New(Config{ID: "X", Send: func(message.NodeID, proto.Message) { sent++ }})
	b.SetMeshTopology([]message.NodeID{"P", "Q", "X"},
		[][2]message.NodeID{{"P", "Q"}, {"P", "X"}, {"Q", "X"}})
	if got := b.Peers(); !reflect.DeepEqual(got, []message.NodeID{"P"}) {
		t.Fatalf("X's tree links = %v, want [P]", got)
	}
	replay := []proto.Subscription{*subMsg("q/s1").Sub}
	b.ApplySyncInstalls("Q", replay)
	if n := b.Router().Table().Len(); n != 0 || sent != 0 {
		t.Errorf("replay over the off-tree link X-Q: %d entries installed, %d messages sent; want 0 and 0", n, sent)
	}
	b.ApplySyncInstalls("P", replay)
	if e, ok := b.Router().Table().Get("q/s1"); !ok || e.Link != "P" {
		t.Errorf("replay over the tree link X-P: entry %+v (present %v), want it learned from P", e, ok)
	}
}
