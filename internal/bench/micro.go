package bench

import (
	"fmt"
	"math/rand"
	"time"

	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
	"rebeca/internal/sim"
)

// E2LogicalAdaptation reproduces Fig. 1 (right): a client walking an office
// floor. Room changes inside one border broker's scope need no adaptation
// traffic at all (the broker-scope myloc already covers them); only
// broker-crossing moves cost anything — and under pre-subscription the
// subscriptions are already in place. The walk is scripted: the seed is
// unused.
func E2LogicalAdaptation(int64) Table {
	t := Table{
		ID:      "E2",
		Caption: "Logical mobility: adaptation cost per move (Fig. 1 right, §1)",
		Header: []string{"deployment", "intra-broker msgs/move", "inter-broker msgs/move",
			"inter coverage"},
		Notes: "intra-broker room changes are free; pre-subscription removes per-move subscription churn",
	}
	for _, mode := range []struct {
		name string
		m    sim.ReplicationMode
	}{
		{"replicated", sim.ReplicationPreSubscribe},
		{"reactive", sim.ReplicationReactive},
	} {
		intra, inter, cov := officeFloorRun(mode.m)
		t.AddRow(mode.name, f2(intra), f2(inter), pct(cov))
	}
	return t
}

// officeFloorRun walks a client room-by-room along an office floor of 4
// broker segments × 3 rooms and counts adaptation traffic per move type.
func officeFloorRun(mode sim.ReplicationMode) (intraPerMove, interPerMove, interCoverage float64) {
	g := movement.Line(4)
	brokers := g.Nodes()
	locs := location.OfficeFloor(brokers, 3)
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:    g,
		Locations:   locs,
		Replication: mode,
		Mobility:    sim.MobilityTransparent,
	})
	if err != nil {
		panic(err)
	}
	net := cl.Net

	mob := cl.AddClient("walker")
	mob.ConnectTo(brokers[0])
	mob.SubscribeAt(filter.Eq("service", message.String("temperature")))
	net.Run()

	msgsAt := func() int { return net.Stats().Total() }

	// Intra-broker moves: the client wanders rooms covered by its current
	// broker. In this model no middleware interaction happens at all (the
	// broker-scope myloc already covers every room in the segment).
	before := msgsAt()
	intraMoves := 6
	for i := 0; i < intraMoves; i++ {
		net.RunFor(10 * time.Millisecond) // roaming rooms, no API calls
	}
	intraPerMove = float64(msgsAt()-before) / float64(intraMoves)

	// Inter-broker moves: walk the corridor end to end and back.
	interMoves := 0
	before = msgsAt()
	covered, expected := 0, 0
	route := []message.NodeID{"B1", "B2", "B3", "B2", "B1", "B0"}
	for _, next := range route {
		// A temperature reading appears in the next segment just before
		// the client arrives: only a pre-subscribed deployment hears it.
		pub := cl.AddClient(message.NodeID(fmt.Sprintf("pub%d", interMoves)))
		pub.ConnectTo(next)
		room := locs.Scope(next)[1] // a room in the next segment
		n := message.NewNotification(map[string]message.Value{
			"service": message.String("temperature"),
			"reading": message.Int(int64(20 + interMoves)),
		})
		n = location.Stamp(n, room)
		pub.Publish(n.Attrs)
		net.Run()

		mob.Disconnect()
		net.RunFor(2 * time.Millisecond)
		mob.ConnectTo(next)
		net.Run()
		interMoves++
		expected++
		for _, rec := range mob.ReceivedNotes() {
			if v, ok := rec.Get("reading"); ok && v.IntVal() == int64(19+interMoves) {
				covered++
				break
			}
		}
	}
	interPerMove = float64(msgsAt()-before) / float64(interMoves)
	interCoverage = float64(covered) / float64(expected)
	return intraPerMove, interPerMove, interCoverage
}

// E3Routing reproduces Fig. 2's router network at scale: routing-table
// pressure and notification path cost under simple vs covering routing on
// random trees, with static clients (covering is not relocation-aware).
func E3Routing(seed int64) Table {
	t := Table{
		ID:      "E3",
		Caption: "Content-based routing scalability (Fig. 2, §2)",
		Header: []string{"brokers", "subs", "strategy", "table-entries",
			"sub-msgs", "deliveries"},
		Notes: "covering shrinks tables and subscription traffic without losing deliveries",
	}
	for _, size := range []int{7, 15, 31} {
		for _, strat := range []routing.Strategy{routing.StrategySimple, routing.StrategyCovering} {
			entries, subMsgs, deliveries := routingRun(size, strat, seed)
			t.AddRow(itoa(size), itoa(size*2), strat.String(),
				itoa(entries), itoa(subMsgs), itoa(deliveries))
		}
	}
	return t
}

func routingRun(n int, strat routing.Strategy, seed int64) (tableEntries, subMsgs, deliveries int) {
	g := movement.RandomTree(n, seed)
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement: g,
		Strategy: strat,
	})
	if err != nil {
		panic(err)
	}
	net := cl.Net
	rng := rand.New(rand.NewSource(seed))
	brokers := g.Nodes()

	// Two subscribers per broker: one wide range, one narrow (covered).
	subs := make([]*client.Client, len(brokers))
	for i, b := range brokers {
		sub := cl.AddClient(message.NodeID(fmt.Sprintf("sub%d", i)))
		subs[i] = sub
		sub.ConnectTo(b)
		bound := int64(50 + rng.Intn(50))
		sub.Subscribe(filter.New(filter.Lt("v", message.Int(bound))))
		sub.Subscribe(filter.New(filter.Lt("v", message.Int(bound/2))))
	}
	net.Run()
	subMsgs = net.Stats().ByKind[proto.KSubscribe]
	tableEntries = cl.TotalTableEntries()

	pub := cl.AddClient("pub")
	pub.ConnectTo(brokers[0])
	for i := 0; i < 50; i++ {
		pub.Publish(map[string]message.Value{"v": message.Int(int64(rng.Intn(120)))})
	}
	net.Run()
	for _, sub := range subs {
		deliveries += int(sub.Delivered())
	}
	return tableEntries, subMsgs, deliveries
}

// E4VirtualClientOverhead measures the cost of the stub/virtual-client
// indirection of Fig. 3: messages per operation with and without the
// replicator layer attached.
func E4VirtualClientOverhead(seed int64) Table {
	t := Table{
		ID:      "E4",
		Caption: "Virtual-client indirection overhead (Fig. 3, §2)",
		Header:  []string{"deployment", "msgs/publish", "msgs/subscribe", "deliveries/publish"},
		Notes:   "the replicator layer adds only direct replica traffic on subscribe, none on publish",
	}
	for _, mode := range []struct {
		name string
		m    sim.ReplicationMode
	}{
		{"plain", sim.ReplicationNone},
		{"replicated", sim.ReplicationPreSubscribe},
	} {
		pubCost, subCost, delivs := overheadRun(mode.m, seed)
		t.AddRow(mode.name, f2(pubCost), f2(subCost), f2(delivs))
	}
	return t
}

func overheadRun(mode sim.ReplicationMode, seed int64) (perPublish, perSubscribe, deliveriesPerPublish float64) {
	g := movement.Line(3)
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:    g,
		Locations:   location.Regions(g.Nodes()),
		Replication: mode,
		Mobility:    sim.MobilityTransparent,
	})
	if err != nil {
		panic(err)
	}
	net := cl.Net
	sub := cl.AddClient("sub")
	sub.ConnectTo("B1")
	net.Run()

	before := net.Stats().Total()
	const nSubs = 10
	for i := 0; i < nSubs; i++ {
		if mode == sim.ReplicationNone {
			sub.Subscribe(filter.New(filter.Eq("topic", message.Int(int64(i)))))
		} else {
			sub.SubscribeAt(filter.Eq("topic", message.Int(int64(i))))
		}
	}
	net.Run()
	perSubscribe = float64(net.Stats().Total()-before) / nSubs

	pub := cl.AddClient("pub")
	pub.ConnectTo("B1")
	before = net.Stats().Total()
	beforeDeliv := sub.Delivered()
	const nPubs = 50
	for i := 0; i < nPubs; i++ {
		attrs := map[string]message.Value{"topic": message.Int(int64(i % nSubs))}
		n := message.NewNotification(attrs)
		n = location.Stamp(n, "region-B1")
		pub.Publish(n.Attrs)
	}
	net.Run()
	perPublish = float64(net.Stats().Total()-before) / nPubs
	deliveriesPerPublish = float64(sub.Delivered()-beforeDeliv) / nPubs
	return perPublish, perSubscribe, deliveriesPerPublish
}

// E8SharedBuffer reproduces §4's shared-buffer proposal: resident buffer
// memory for k co-located virtual clients with private vs shared stores.
func E8SharedBuffer(seed int64) Table {
	t := Table{
		ID:      "E8",
		Caption: "Shared buffer with digests vs private buffers (§4)",
		Header:  []string{"clients", "store", "buf-bytes", "distinct-notes", "coverage"},
		Notes:   "shared store keeps one copy per distinct notification; digests are cheap",
	}
	for _, k := range []int{2, 8, 32} {
		for _, shared := range []bool{false, true} {
			bytes, distinct, cov := sharedBufferRun(k, shared, seed)
			name := "private"
			if shared {
				name = "shared"
			}
			t.AddRow(itoa(k), name, itoa(bytes), itoa(distinct), pct(cov))
		}
	}
	return t
}

func sharedBufferRun(k int, shared bool, seed int64) (bufBytes, distinct int, coverage float64) {
	g := movement.Line(3)
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:      g,
		Locations:     location.Regions(g.Nodes()),
		Replication:   sim.ReplicationPreSubscribe,
		Mobility:      sim.MobilityTransparent,
		SharedBuffers: shared,
	})
	if err != nil {
		panic(err)
	}
	net := cl.Net

	// k clients parked at B0 and B2; all their B1 replicas buffer the same
	// menu traffic.
	mobs := make([]message.NodeID, k)
	for i := 0; i < k; i++ {
		id := message.NodeID(fmt.Sprintf("mob%d", i))
		mobs[i] = id
		m := cl.AddClient(id)
		if i%2 == 0 {
			m.ConnectTo("B0")
		} else {
			m.ConnectTo("B2")
		}
		m.SubscribeAt(filter.Eq("service", message.String("menu")))
	}
	net.Run()

	pub := cl.AddClient("pub")
	pub.ConnectTo("B1")
	const nPubs = 40
	for i := 0; i < nPubs; i++ {
		n := message.NewNotification(map[string]message.Value{
			"service": message.String("menu"),
			"item":    message.Int(int64(i)),
			"text":    message.String("daily specials with some realistic payload text"),
		})
		n = location.Stamp(n, "region-B1")
		pub.Publish(n.Attrs)
	}
	net.Run()

	bufBytes = cl.Replicators["B1"].BufferedBytes()
	if s, ok := cl.Shared["B1"]; ok && shared {
		distinct = s.Len()
	} else {
		distinct = nPubs
	}
	// Verify replay still works: move one client in.
	m := cl.Clients[mobs[0]]
	m.Disconnect()
	net.RunFor(2 * time.Millisecond)
	m.ConnectTo("B1")
	net.Run()
	got := 0
	for _, n := range m.ReceivedNotes() {
		if v, ok := n.Get("service"); ok && v.Str() == "menu" {
			got++
		}
	}
	coverage = float64(got) / nPubs
	return bufBytes, distinct, coverage
}
