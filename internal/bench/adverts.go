package bench

import (
	"fmt"

	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/proto"
	"rebeca/internal/sim"
)

// E3Advertisements measures advertisement-based routing (REBECA [3]):
// with publishers localized at few brokers, gating subscription forwarding
// on advertisement overlap prunes most of the global subscription state.
func E3Advertisements(seed int64) Table {
	t := Table{
		ID:      "E3c",
		Caption: "Advertisement-based routing: subscription-state pruning ([3], [16])",
		Header: []string{"brokers", "publishers", "routing", "table-entries",
			"sub-msgs", "deliveries"},
		Notes: "subscriptions travel only toward advertised publishers; deliveries are unchanged",
	}
	for _, size := range []int{7, 15, 31} {
		for _, adv := range []bool{false, true} {
			entries, subMsgs, deliveries := advertRun(size, adv, seed)
			name := "flood-subs"
			if adv {
				name = "advertised"
			}
			t.AddRow(itoa(size), "2", name, itoa(entries), itoa(subMsgs), itoa(deliveries))
		}
	}
	return t
}

func advertRun(n int, adv bool, seed int64) (tableEntries, subMsgs, deliveries int) {
	g := movement.RandomTree(n, seed)
	cl, err := sim.NewCluster(sim.ClusterConfig{
		Movement:       g,
		Advertisements: adv,
	})
	if err != nil {
		panic(err)
	}
	net := cl.Net
	brokers := g.Nodes()

	// Two localized publishers at the first two brokers.
	pubs := make([]*client.Client, 2)
	for i := 0; i < 2; i++ {
		p := cl.AddClient(message.NodeID(fmt.Sprintf("pub%d", i)))
		p.ConnectTo(brokers[i])
		if adv {
			p.Advertise(filter.New(filter.Eq("feed", message.Int(int64(i)))))
		}
		pubs[i] = p
	}
	net.Run()

	// One subscriber per broker, split across the two feeds.
	for i, b := range brokers {
		s := cl.AddClient(message.NodeID(fmt.Sprintf("sub%d", i)))
		s.ConnectTo(b)
		s.Subscribe(filter.New(filter.Eq("feed", message.Int(int64(i%2)))))
	}
	net.Run()
	subMsgs = net.Stats().ByKind[proto.KSubscribe]
	tableEntries = cl.TotalTableEntries()

	for i := 0; i < 20; i++ {
		pubs[i%2].Publish(map[string]message.Value{"feed": message.Int(int64(i % 2))})
	}
	net.Run()
	deliveries = net.Stats().ByKind[proto.KDeliver]
	return tableEntries, subMsgs, deliveries
}
