package rebeca

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/overlay"
	"rebeca/internal/telemetry"
)

// fleet drives separately started brokers through the facade's client
// ports: a Live is nothing but the BrokerNodes it holds.
func fleet(t *testing.T) *Live {
	t.Helper()
	cfg, err := applyOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Live{cfg: cfg, nodes: make(map[NodeID]*BrokerNode)}
}

// put adds a broker to the fleet, or replaces a restarted one.
func (l *Live) put(n *BrokerNode) {
	if l.nodes[n.id] == nil {
		l.ids = append(l.ids, n.id)
	}
	l.nodes[n.id] = n
}

// drop closes a broker (it deregisters first) and takes it out of the fleet.
func (l *Live) drop(t *testing.T, id NodeID) {
	t.Helper()
	if err := l.nodes[id].Close(0); err != nil {
		t.Fatal(err)
	}
	delete(l.nodes, id)
	for i, x := range l.ids {
		if x == id {
			l.ids = append(l.ids[:i], l.ids[i+1:]...)
			break
		}
	}
}

// waitFullMesh waits until every broker of a registry fleet lists every
// other as a member and has an established link to it.
func waitFullMesh(t *testing.T, l *Live) {
	t.Helper()
	want := len(l.ids) - 1
	for _, id := range l.ids {
		n := l.nodes[id]
		eventually(t, 5*time.Second, fmt.Sprintf("%s linked to %d peers", id, want), func() bool {
			up := 0
			for _, s := range n.node.LinkStates() {
				if s == overlay.StateEstablished {
					up++
				}
			}
			return up == want && n.member.Peers() == want
		})
	}
}

// roamer is a client with one myloc subscription, counting its deliveries.
func roamer(t *testing.T, l *Live, at NodeID) (Port, *atomic.Int64) {
	t.Helper()
	var got atomic.Int64
	mob := l.NewClient("mob")
	mob.OnNotify(func(Notification) { got.Add(1) })
	if err := mob.Connect(at); err != nil {
		t.Fatal(err)
	}
	mob.SubscribeAt(Eq("service", String("menu")))
	return mob, &got
}

// publishAt publishes n menu notes stamped for region-<region> from pub,
// connected at border.
func publishAt(t *testing.T, pub Port, border, region NodeID, n int) {
	t.Helper()
	if err := pub.Connect(border); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := pub.Publish(map[string]Value{"service": String("menu"),
			"location": String("region-" + string(region)), "i": Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStartBrokerRegistryReplicates: four StartBroker brokers on one file:
// registry run the replicator over the registry's graph (a full mesh, since
// a lone broker registers no peer list). A myloc client subscribes at A and
// goes away; n notes stamped for another broker's region are published; the
// client reappears there with A as its previous border and finds them — a
// "subscription in the past", activated, not the exception mode — and the
// arrival broker's /metrics counts the replica it created. Two variants
// change the graph under the replicator: a broker that registers after the
// subscription gets its replica when its link comes up, and a broker that
// leaves before the move takes nothing from the survivors.
func TestStartBrokerRegistryReplicates(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name        string
		late, leave NodeID // registers after the subscription; leaves before the move
		to          NodeID // the arrival broker
	}{
		{name: "all registered", to: "C"},
		{name: "late registration", late: "D", to: "D"},
		{name: "departure", leave: "D", to: "B"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			uri := "file:" + filepath.Join(t.TempDir(), "peers.json")
			tally := &broker.MechanismTally{}
			l := fleet(t)
			defer l.Close()
			start := func(id NodeID) {
				t.Helper()
				opts := []Option{WithRegistry(uri), WithHeartbeat(100*time.Millisecond, 0), WithMiddleware(tally)}
				if id == tc.to {
					opts = append(opts, WithOps("127.0.0.1:0"))
				}
				node, err := StartBroker(BrokerSpec{ID: id}, opts...)
				if err != nil {
					t.Fatalf("start %s: %v", id, err)
				}
				l.put(node)
			}
			for _, id := range []NodeID{"A", "B", "C", "D"} {
				if id != tc.late {
					start(id)
				}
			}
			waitFullMesh(t, l)

			mob, got := roamer(t, l, "A")
			replicas := func(want int) {
				t.Helper()
				eventually(t, 5*time.Second, fmt.Sprintf("%d virtual clients of mob", want), func() bool {
					return tally.Total(broker.CoreReplicasCreated) == want
				})
			}
			// The active virtual client at A and one replica per neighbor.
			replicas(len(l.ids))
			if tc.late != "" {
				start(tc.late)
				waitFullMesh(t, l)
				replicas(len(l.ids))
			}
			if tc.leave != "" {
				l.drop(t, tc.leave)
				waitFullMesh(t, l)
			}
			if err := mob.Disconnect(); err != nil {
				t.Fatal(err)
			}
			l.Settle()
			publishAt(t, l.NewClient("pub"), "A", tc.to, n)
			eventually(t, 5*time.Second, fmt.Sprintf("%d notes buffered at %s", n, tc.to), func() bool {
				return tally.At(tc.to, broker.CoreBuffered) == n
			})
			if err := mob.Connect(tc.to); err != nil {
				t.Fatal(err)
			}
			eventually(t, 5*time.Second, fmt.Sprintf("%d delivered at %s", n, tc.to), func() bool {
				l.Settle()
				return got.Load() >= n
			})
			if got.Load() != n {
				t.Errorf("delivered %d, want %d", got.Load(), n)
			}
			if a, e := tally.At(tc.to, broker.CoreActivations), tally.Total(broker.CoreExceptionActivations); a < 1 || e != 0 {
				t.Errorf("%s: %d activations, %d exception activations; want >= 1 and 0", tc.to, a, e)
			}
			created := telemetry.MechanismMetric(broker.CoreReplicasCreated)
			if v := mechanismSums(t, l.nodes[tc.to].OpsAddr())[created]; v <= 0 {
				t.Errorf("%s's /metrics: %s = %v, want > 0", tc.to, created, v)
			}
			resident := 0
			for _, id := range l.ids {
				l.nodes[id].node.Inspect(func(*Broker) {
					resident += l.nodes[id].layers.Replicator.ResidentVirtualClients()
				})
			}
			t.Logf("%d brokers: %d virtual clients of one client, %d created, core.buffered %d, core.wasted %d",
				len(l.ids), resident, tally.Total(broker.CoreReplicasCreated),
				tally.Total(broker.CoreBuffered), tally.Total(broker.CoreWasted))
		})
	}
}

// TestStartBrokerRestartRecreatesReplicas: on a static line A-B-C a myloc
// client at A keeps its replica at B (nlb(A) = {B}). B restarts and comes
// back without it; the link A-B coming up re-creates it, so region-B notes
// published while the client is still at A wait at B, and a move A → B
// replays them as an activation, not the exception mode. With a WAL on B,
// the notes B's replica buffered before the restart replay too: the
// re-created virtual client reloads its store queue.
func TestStartBrokerRestartRecreatesReplicas(t *testing.T) {
	const n = 5
	for _, durable := range []bool{false, true} {
		name := "volatile"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			addrs := freeAddrs(t, 3)
			addr := map[NodeID]string{"A": addrs[0], "B": addrs[1], "C": addrs[2]}
			dial := map[NodeID]map[NodeID]string{"B": {"A": addrs[0]}, "C": {"B": addrs[1]}}
			tally := &broker.MechanismTally{}
			dir := t.TempDir()
			var wal *WALStore
			// After the fleet's deferred Close: no node may append to a
			// closed store.
			t.Cleanup(func() {
				if wal != nil {
					_ = wal.Close()
				}
			})
			l := fleet(t)
			defer l.Close()
			start := func(id NodeID) {
				t.Helper()
				opts := []Option{WithHeartbeat(100*time.Millisecond, 0), WithMiddleware(tally)}
				if durable && id == "B" {
					var err error
					if wal, err = OpenWAL(dir, WALNoSync()); err != nil {
						t.Fatal(err)
					}
					opts = append(opts, WithDurable(wal))
				}
				node, err := StartBroker(BrokerSpec{ID: id, Listen: addr[id], Edges: lineABC, Dial: dial[id]}, opts...)
				if err != nil {
					t.Fatalf("start %s: %v", id, err)
				}
				l.put(node)
			}
			for _, id := range []NodeID{"A", "B", "C"} {
				start(id)
			}
			waitReady(t, l.nodes["A"], l.nodes["B"], l.nodes["C"])

			mob, got := roamer(t, l, "A")
			replicaAtB := func(want int) {
				t.Helper()
				eventually(t, 5*time.Second, fmt.Sprintf("replica %d of mob at B", want), func() bool {
					return tally.At("B", broker.CoreReplicasCreated) == want
				})
			}
			replicaAtB(1)
			pub := l.NewClient("pub")
			before := 0
			if durable {
				publishAt(t, pub, "B", "B", n)
				before = n
				eventually(t, 5*time.Second, "notes buffered at B before its restart", func() bool {
					return tally.At("B", broker.CoreBuffered) == before
				})
			}
			if err := pub.Disconnect(); err != nil {
				t.Fatal(err)
			}
			if err := l.nodes["B"].Close(time.Second); err != nil {
				t.Fatal(err)
			}
			if durable {
				if err := wal.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := wal.Close(); err != nil {
					t.Fatal(err)
				}
			}
			start("B")
			replicaAtB(2)
			publishAt(t, pub, "B", "B", n)
			eventually(t, 5*time.Second, "notes buffered at B after its restart", func() bool {
				return tally.At("B", broker.CoreBuffered) == before+n
			})
			if err := mob.Connect("B"); err != nil {
				t.Fatal(err)
			}
			eventually(t, 5*time.Second, fmt.Sprintf("%d delivered at B", before+n), func() bool {
				l.Settle()
				return got.Load() >= int64(before+n)
			})
			if got.Load() != int64(before+n) {
				t.Errorf("delivered %d, want %d", got.Load(), before+n)
			}
			if a, e := tally.At("B", broker.CoreActivations), tally.Total(broker.CoreExceptionActivations); a != 1 || e != 0 {
				t.Errorf("B: %d activations, %d exception activations; want 1 and 0", a, e)
			}
		})
	}
}
