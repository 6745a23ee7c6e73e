package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/proto"
)

// relocNet runs one Router per broker of a tree and carries their forwards
// over FIFO links, to quiescence.
type relocNet struct {
	t       *testing.T
	g       *movement.Graph
	routers map[message.NodeID]*Router
	queue   []relocMsg
	// subs and unsubs count the forwards carried since the last reset.
	subs, unsubs int
}

type relocMsg struct {
	from, to message.NodeID
	fw       Forward
}

func newRelocNet(t *testing.T, g *movement.Graph) *relocNet {
	n := &relocNet{t: t, g: g, routers: make(map[message.NodeID]*Router)}
	for _, b := range g.Nodes() {
		n.routers[b] = NewIndexedRouter(StrategySimple)
	}
	return n
}

// subscribe enters sub at border b from the client port and runs the
// network to quiescence.
func (n *relocNet) subscribe(b message.NodeID, sub proto.Subscription) {
	n.emit(b, n.routers[b].Subscribe(sub, relocPort, n.g.Neighbors(b)))
	n.run()
}

// unsubscribe withdraws the subscription at border b and runs the network
// to quiescence.
func (n *relocNet) unsubscribe(b message.NodeID, id message.SubID) {
	n.emit(b, n.routers[b].Unsubscribe(id, n.g.Neighbors(b)))
	n.run()
}

func (n *relocNet) emit(from message.NodeID, fws []Forward) {
	for _, f := range fws {
		n.queue = append(n.queue, relocMsg{from: from, to: f.Link, fw: f})
	}
}

func (n *relocNet) run() {
	for len(n.queue) > 0 {
		m := n.queue[0]
		n.queue = n.queue[1:]
		r, links := n.routers[m.to], n.g.Neighbors(m.to)
		if !m.fw.Unsub {
			n.subs++
			n.emit(m.to, r.Subscribe(m.fw.Sub, m.from, links))
			continue
		}
		n.unsubs++
		fws := r.Unsubscribe(m.fw.Sub.ID, links)
		for _, f := range fws {
			if f.Link == m.from {
				n.t.Errorf("%s sent the unsubscription of %s back to %s, where it came from", m.to, f.Sub.ID, m.from)
			}
		}
		n.emit(m.to, fws)
	}
}

const relocPort message.NodeID = "port"

// routeState is one broker's routing state for one subscription: the
// entry's link and filter key, and the neighbours it is marked forwarded
// on.
type routeState struct {
	link  message.NodeID
	key   string
	marks []message.NodeID
}

func (n *relocNet) state(b message.NodeID, id message.SubID) (routeState, bool) {
	r := n.routers[b]
	slot, ok := r.table.slotOf[id]
	if !ok {
		return routeState{}, false
	}
	e := r.table.rows[slot].entry
	st := routeState{link: e.Link, key: e.Sub.Filter.Key()}
	for _, nb := range n.g.Neighbors(b) {
		if r.table.marked(slot, nb) {
			st.marks = append(st.marks, nb)
		}
	}
	return st, true
}

// checkFixedPoint asserts the routing fixed point of subscription sub held
// at border: every broker's entry carries sub's filter and points along
// the tree path to border (border's own at the client port), and each
// broker is marked on exactly the neighbours whose entry points back at
// it.
func (n *relocNet) checkFixedPoint(ctx string, sub proto.Subscription, border message.NodeID) {
	t := n.t
	t.Helper()
	for _, b := range n.g.Nodes() {
		st, ok := n.state(b, sub.ID)
		if !ok {
			t.Errorf("%s: %s has no entry for %s", ctx, b, sub.ID)
			continue
		}
		want := relocPort
		if b != border {
			want = n.g.ShortestPath(b, border)[1]
		}
		if st.link != want {
			t.Errorf("%s: %s routes %s to %s, want %s", ctx, b, sub.ID, st.link, want)
		}
		if st.key != sub.Filter.Key() {
			t.Errorf("%s: %s holds %s with filter %s, want %s", ctx, b, sub.ID, st.key, sub.Filter.Key())
		}
		var pointBack []message.NodeID
		for _, nb := range n.g.Neighbors(b) {
			if ns, ok := n.state(nb, sub.ID); ok && ns.link == b {
				pointBack = append(pointBack, nb)
			}
		}
		if !slices.Equal(st.marks, pointBack) {
			t.Errorf("%s: %s marks %s on %v, want the neighbours pointing back %v", ctx, b, sub.ID, st.marks, pointBack)
		}
	}
}

func relocSub(id string, v int64) proto.Subscription {
	return proto.Subscription{ID: message.SubID(id), Filter: filter.New(filter.Eq("k", message.Int(v)))}
}

// TestRelocationReachesFixedPoint moves one subscriber around seeded random
// trees, by relocation flips, beside a second subscriber that stays put.
// After each move every routing table is at the fixed point, the flip
// crossed exactly the old-to-new border path when the filter did not
// change, and the tables equal those of a network fed the final
// subscriptions afresh. A final unsubscription is carried once per tree
// edge and never sent back on the link it came from.
func TestRelocationReachesFixedPoint(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := movement.RandomTree(2+rng.Intn(11), seed)
			nodes := g.Nodes()
			pick := func() message.NodeID { return nodes[rng.Intn(len(nodes))] }

			net := newRelocNet(t, g)
			mob, still := relocSub("mob", 1), relocSub("still", 2)
			stillAt, border := pick(), pick()
			net.subscribe(stillAt, still)
			net.subscribe(border, mob)
			net.checkFixedPoint("subscribed", mob, border)

			for step := 0; step < 12; step++ {
				to := pick()
				if to == border {
					continue
				}
				changed := rng.Intn(4) == 0
				if changed {
					mob = relocSub("mob", int64(10+step))
				}
				net.subs = 0
				net.subscribe(to, mob)
				ctx := fmt.Sprintf("step %d, %s → %s", step, border, to)
				if hops := len(g.ShortestPath(border, to)) - 1; !changed && net.subs != hops {
					t.Errorf("%s: the flip crossed %d links, want the path's %d", ctx, net.subs, hops)
				}
				border = to
				net.checkFixedPoint(ctx, mob, border)
				net.checkFixedPoint(ctx, still, stillAt)
			}

			fresh := newRelocNet(t, g)
			fresh.subscribe(stillAt, still)
			fresh.subscribe(border, mob)
			for _, b := range nodes {
				for _, id := range []message.SubID{"mob", "still"} {
					got, _ := net.state(b, id)
					want, _ := fresh.state(b, id)
					if got.link != want.link || got.key != want.key || !slices.Equal(got.marks, want.marks) {
						t.Errorf("%s's state of %s is %+v, a fresh network's %+v", b, id, got, want)
					}
				}
			}

			net.unsubs = 0
			net.unsubscribe(border, "mob")
			if want := len(nodes) - 1; net.unsubs != want {
				t.Errorf("the unsubscription crossed %d links, want the tree's %d", net.unsubs, want)
			}
			for _, b := range nodes {
				if _, ok := net.state(b, "mob"); ok {
					t.Errorf("%s still routes mob after its unsubscription", b)
				}
			}
			net.checkFixedPoint("after mob left", still, stillAt)
		})
	}
}
