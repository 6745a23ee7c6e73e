package rebeca_test

import (
	"path/filepath"
	"testing"
	"time"

	"rebeca"
)

// meshGraph is the chaos fixture: a diamond b1-b2-b4-b3 with the chord
// b2-b3 and a tail broker b5 hanging off b4. Two redundant cycles; the
// spanning tree elected from it (root b1, neighbors in ID order) is
// b1-b2, b1-b3, b2-b4, b4-b5 — so b2-b4 is the primary link toward the
// b4/b5 subtree and b3-b4 is its standby.
func meshGraph() *rebeca.Graph {
	return rebeca.NewGraph().
		AddEdge("b1", "b2").AddEdge("b1", "b3").
		AddEdge("b2", "b3"). // chord
		AddEdge("b2", "b4").AddEdge("b3", "b4").
		AddEdge("b4", "b5")
}

func meshEdges() [][2]rebeca.NodeID {
	return [][2]rebeca.NodeID{
		{"b1", "b2"}, {"b1", "b3"}, {"b2", "b3"},
		{"b2", "b4"}, {"b3", "b4"}, {"b4", "b5"},
	}
}

// runMeshChaosScenario is the ISSUE's mesh failover scenario, shared by
// the sim and live deployments: a publisher at b1, subscribers at the
// far end of the diamond, and the primary spanning-tree link b2-b4 cut
// mid-publish. Re-election must reroute through the redundant b3-b4
// edge with no duplicate deliveries; healing the link must revert the
// tree just as cleanly; and a durable ghost buffered through the whole
// run must replay gap-free at the end.
func runMeshChaosScenario(t *testing.T, h *chaosHarness) {
	t.Helper()
	f := rebeca.NewFilter(rebeca.Eq("topic", rebeca.String("mesh")))

	// The ghost: durable-subscribes at b5, disconnects before any
	// traffic. Its queue buffers the full run — across the cut, the
	// re-election, and the heal — and must replay exactly at the end.
	ghost := h.d.NewClient("ghost")
	ghost.Subscribe(f, rebeca.Durable("mesh-ghost"), rebeca.WithStreamBuffer(64))
	connect(t, ghost, "b5")
	h.d.Settle()
	if err := ghost.Disconnect(); err != nil {
		t.Fatal(err)
	}
	h.d.Settle()

	// The witness: a durable subscriber attached at b5 for the whole
	// run. Every notification must reach it exactly once, in order,
	// whichever tree carries it.
	witness := h.d.NewClient("witness")
	connect(t, witness, "b5")
	wlog := &streamLog{s: witness.Subscribe(f, rebeca.Durable("mesh-witness"), rebeca.WithStreamBuffer(256))}

	// A volatile subscriber at b4 — the junction both redundant paths
	// share — must converge and never see a flood duplicate.
	volatileSub := h.d.NewClient("volatile")
	connect(t, volatileSub, "b4")
	vlog := &streamLog{s: volatileSub.Subscribe(f, rebeca.WithStreamBuffer(256))}

	pub := h.d.NewClient("pub")
	connect(t, pub, "b1")
	h.d.Settle()

	seq := 0
	wave := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if _, err := pub.Publish(map[string]rebeca.Value{
				"topic": rebeca.String("mesh"), "n": rebeca.Int(int64(seq)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Wave 1: healthy mesh, traffic rides the elected tree.
	wave(5)
	h.advance(100 * time.Millisecond)

	// Wave 2 is published and the primary tree link cut before the
	// deployment settles: in-flight notes queue at the dead link and
	// must be re-flooded onto the standby path once the link-state
	// record propagates and every replica re-elects.
	wave(5)
	if err := h.chaos.CutLink("b2", "b4"); err != nil {
		t.Fatal(err)
	}
	h.advance(300 * time.Millisecond) // past detection + re-election

	// Wave 3: the b3-b4 edge is now a tree edge; delivery continues
	// with the cut still in place.
	wave(5)
	h.advance(100 * time.Millisecond)

	// Heal. The up record floods, the tree reverts to b2-b4, and the
	// handover must not duplicate or drop anything either.
	if err := h.chaos.HealLink("b2", "b4"); err != nil {
		t.Fatal(err)
	}
	h.waitEstablished(t, [][2]rebeca.NodeID{{"b2", "b4"}})
	wave(5)

	// Drain until the witness has the full sequence.
	for i := 0; i < 50; i++ {
		h.advance(100 * time.Millisecond)
		if len(wlog.drain()) == seq {
			break
		}
	}

	got := wlog.received(t)
	if len(got) != seq {
		t.Fatalf("witness: %d deliveries, want %d (%s)", len(got), seq, gaps(got, seq))
	}
	if d := witness.Duplicates(); d != 0 {
		t.Errorf("witness saw %d duplicates across re-election", d)
	}
	if v := witness.FIFOViolations(); v != 0 {
		t.Errorf("witness saw %d FIFO violations", v)
	}

	vGot := vlog.received(t)
	final := false
	for _, d := range vGot {
		if n, ok := d.Note.Attrs["n"]; ok && n.IntVal() == int64(seq) {
			final = true
		}
	}
	if !final {
		t.Errorf("volatile subscriber never converged (have %d deliveries)", len(vGot))
	}
	if d := volatileSub.Duplicates(); d != 0 {
		t.Errorf("volatile subscriber saw %d flood duplicates", d)
	}

	// The ghost reattaches: its durable queue must replay the entire
	// run gap-free — nothing lost while the tree was in flux.
	ghost2 := h.d.NewClient("ghost")
	sub2 := ghost2.Subscribe(f, rebeca.Durable("mesh-ghost"), rebeca.WithStreamBuffer(64))
	connect(t, ghost2, "b5")
	h.advance(200 * time.Millisecond)
	replay := make(map[int64]int)
	for {
		var done bool
		select {
		case d, ok := <-sub2.Events():
			if !ok {
				done = true
				break
			}
			if n, present := d.Note.Get("n"); present {
				replay[n.IntVal()]++
			}
		case <-time.After(750 * time.Millisecond):
			done = true
		}
		if done {
			break
		}
	}
	for i := int64(1); i <= int64(seq); i++ {
		switch replay[i] {
		case 1:
		case 0:
			t.Errorf("ghost replay gap: notification %d lost", i)
		default:
			t.Errorf("ghost replay duplicate: notification %d delivered %d times", i, replay[i])
		}
	}
	if d := ghost2.Duplicates(); d != 0 {
		t.Errorf("ghost reattach suppressed %d duplicates; replay should be exact", d)
	}
}

// TestMeshChaosSim runs the failover scenario on the virtual clock: the
// movement graph IS the broker mesh, and cut/heal detection rides the
// simulated heartbeats.
func TestMeshChaosSim(t *testing.T) {
	h := simChaosHarness(t,
		rebeca.WithMovement(meshGraph()),
		rebeca.WithDurable(rebeca.NewMemoryStore()),
	)
	runMeshChaosScenario(t, h)
}

// TestMeshChaosLive boots the same mesh over real TCP with zero static
// peer wiring: every broker publishes itself into a shared file
// registry, membership discovers and dials the neighbors the movement
// graph allows, and only then does the scenario start. The CI
// mesh-discovery job runs the cmd-level analog of this bring-up.
func TestMeshChaosLive(t *testing.T) {
	if testing.Short() {
		// Real sockets, registry polling, and heartbeat windows; the CI
		// mesh-discovery job covers the live flavor in its own lane.
		t.Skip("live mesh chaos scenario skipped in -short mode")
	}
	reg := "file:" + filepath.Join(t.TempDir(), "peers.json")
	h := liveChaosHarness(t,
		rebeca.WithMovement(meshGraph()),
		rebeca.WithRegistry(reg),
		rebeca.WithDurable(rebeca.NewMemoryStore()),
	)
	// Registry-driven bring-up: no peer is dialed until discovered, so
	// wait for the whole mesh to link up before publishing.
	h.waitEstablished(t, meshEdges())
	runMeshChaosScenario(t, h)
}

// TestMeshSubscribeDuringBringUp: a subscription issued the instant a
// Ring(4) mesh NewLive returns, while its links still come up, must route.
// The handshake replay of a link the election leaves off the tree used to
// fill the receiver's table, and the plain subscription it passed on
// flipped the subscriber's own border toward a peer: every later note was
// lost, in a quarter to a half of the runs. Eight runs; each publishes
// until one note arrives.
func TestMeshSubscribeDuringBringUp(t *testing.T) {
	if testing.Short() {
		t.Skip("live mesh bring-up skipped in -short mode")
	}
	for run := 0; run < 8; run++ {
		l, err := rebeca.NewLive(rebeca.WithMovement(rebeca.Ring(4)))
		if err != nil {
			t.Fatal(err)
		}
		ids := l.Brokers()
		sub, pub := l.NewClient("sub"), l.NewClient("pub")
		connect(t, sub, ids[2])
		events := sub.Subscribe(rebeca.NewFilter(rebeca.Eq("k", rebeca.String("v")))).Events()
		connect(t, pub, ids[0])
		deadline := time.Now().Add(2 * time.Second)
	publish:
		for {
			if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.String("v")}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-events:
				break publish
			case <-time.After(10 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				l.Close()
				t.Fatalf("run %d: nothing reached the subscriber at %s in 2s", run, ids[2])
			}
		}
		l.Close()
	}
}
