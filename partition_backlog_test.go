package rebeca_test

import (
	"path/filepath"
	"testing"
	"time"

	"rebeca"
)

// TestPartitionBacklogSurvives: notes published at a broker cut off from
// the rest of the overlay wait on one of its links and reach the
// subscriber after the heal, on a forest and on a cyclic graph, on both
// hosts. The election keeps one tree across the cut — a down edge joins
// the broker that only it reaches — so the backlog is neither re-flooded
// into a component that cannot reach the subscriber nor promoted to floods
// that go nowhere.
func TestPartitionBacklogSurvives(t *testing.T) {
	sim, live := optionHosts[0], optionHosts[1]
	heartbeat := rebeca.WithHeartbeat(50*time.Millisecond, 200*time.Millisecond)
	isolateB2 := [][2]rebeca.NodeID{{"B1", "B2"}, {"B2", "B3"}}
	for _, tc := range []struct {
		name  string
		host  optionHost
		graph *rebeca.Graph
		opts  func(t *testing.T) []rebeca.Option
		cuts  [][2]rebeca.NodeID
	}{
		{"line3-registry/live", live, rebeca.Line(3), func(t *testing.T) []rebeca.Option {
			return []rebeca.Option{heartbeat, rebeca.WithRegistry("file:" + filepath.Join(t.TempDir(), "peers.json"))}
		}, [][2]rebeca.NodeID{{"B1", "B2"}}},
		{"ring4/sim", sim, rebeca.Ring(4), nil, isolateB2},
		{"ring4/live", live, rebeca.Ring(4), nil, isolateB2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []rebeca.Option{rebeca.WithMovement(tc.graph), heartbeat}
			if tc.opts != nil {
				opts = append(opts, tc.opts(t)...)
			}
			d, err := tc.host.build(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			r := &optionRun{t: t, host: tc.host, d: d}
			// Registry membership links brokers as they discover each
			// other: cut nothing before every edge is up.
			chaos := d.(linkChaos)
			for i := 0; ; i++ {
				up := true
				for _, e := range tc.graph.Edges() {
					up = up && chaos.LinkStates(e[0])[e[1]] == rebeca.LinkEstablished
				}
				if up {
					break
				}
				if i == 100 {
					t.Fatal("overlay not established")
				}
				tc.host.wait(d, 50*time.Millisecond)
			}
			s := cutPublishHeal(r, tc.cuts...)
			if got, dropped := s.String(), s.s.Stats().Dropped; got != "[1 2 3 4 5 6 7 8 9 10]" || dropped != 0 {
				t.Errorf("after the heal: received %s, dropped %d; want [1 2 3 4 5 6 7 8 9 10] and 0", got, dropped)
			}
		})
	}
}
