package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%v, want p%v", c.n, got, c.want)
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers for the same data.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 40, 80, 160})
	if q1 != 15 || q2 != 40 || q3 != 120 {
		t.Errorf("five values: %v %v %v, want 15 40 120", q1, q2, q3)
	}
	if sp := summarize([]float64{4, 2}); sp.Median != 3 || sp.N != 2 {
		t.Errorf("summarize sorts and counts: %+v", sp)
	}
}

// fakeClock is a pacer clock whose sleeps overshoot by a fixed amount and
// whose sends take a fixed time.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
}

func (f *fakeClock) clock() clock {
	return clock{
		now:   func() time.Time { return f.t },
		sleep: func(d time.Duration) { f.t = f.t.Add(d + f.overshoot) },
	}
}

func TestPaceKeepsScheduleAndAccountsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	fc := &fakeClock{t: start, overshoot: 100 * time.Microsecond}
	plan := schedule{start: start, interval: time.Millisecond}
	var sentAt []time.Duration
	late := pace(plan, 10, fc.clock(), func(i int) bool {
		sentAt = append(sentAt, fc.t.Sub(start))
		if i == 3 {
			fc.t = fc.t.Add(2500 * time.Microsecond) // a stalled send
		}
		return true
	})
	if len(late) != 10 {
		t.Fatalf("paced %d of 10", len(late))
	}
	for i, at := range sentAt {
		if due := time.Duration(i) * time.Millisecond; at < due {
			t.Errorf("note %d sent %v before it was due", i, due-at)
		}
	}
	// Notes 0..3 run 0 or 100 µs late (the sleep overshoot); the stall at
	// note 3 makes 4 and 5 late by what is left of it — sent back to back,
	// no sleep — and from 6 on the schedule is caught up.
	want := []float64{0, 100, 100, 100, 1600, 600, 100, 100, 100, 100}
	for i := range want {
		if math.Abs(late[i]-want[i]) > 1e-6 {
			t.Errorf("lateness of note %d = %v µs, want %v", i, late[i], want[i])
		}
	}
	if sentAt[5] != sentAt[4] {
		t.Errorf("catch-up sends must not sleep: %v then %v", sentAt[4], sentAt[5])
	}
}

func TestPaceStopsWhenSendFails(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	late := pace(schedule{start: fc.t, interval: time.Millisecond}, 10, fc.clock(), func(i int) bool { return i < 2 })
	if len(late) != 3 {
		t.Errorf("ran %d sends after a failure at the third", len(late))
	}
}

func TestWindowBoundsInFlight(t *testing.T) {
	w := newWindow(3)
	far := time.Now().Add(time.Minute)
	for i := 0; i < 3; i++ {
		if !w.acquire(far) {
			t.Fatalf("slot %d refused", i)
		}
	}
	if len(w) != 3 {
		t.Fatalf("in flight %d, want 3", len(w))
	}
	if w.acquire(time.Now().Add(5 * time.Millisecond)) {
		t.Fatal("a fourth slot was granted")
	}
	w.release()
	if !w.acquire(far) {
		t.Fatal("a released slot was not granted again")
	}
	for i := 0; i < 5; i++ { // more releases than acquires: duplicates must not underflow
		w.release()
	}
	if len(w) != 0 {
		t.Fatalf("in flight %d after draining", len(w))
	}
}

// The oracle must not share a bug with the code it judges: its verdict
// (Filter.Matches, one filter at a time) is compared with the indexed
// routing table's on the fan-out filter set.
func TestReferenceMatcherAgreesWithRoutingTable(t *testing.T) {
	in, err := genInputs(wlMesh, 2003)
	if err != nil {
		t.Fatal(err)
	}
	tbl := routing.NewIndexedTable()
	for s, fs := range in.ports {
		for i, f := range fs {
			tbl.Add(proto.Subscription{ID: message.SubID(fmt.Sprintf("%s/s%d", subID(s), i)), Filter: f}, subID(s))
		}
	}
	due := 0
	for p := range in.pool {
		for i := 0; i < poolSize; i++ {
			links := map[message.NodeID]bool{}
			for _, l := range tbl.Match(in.note(p, i), "elsewhere") {
				links[l] = true
			}
			for s := range in.ports {
				if in.due(s, p, i) != links[subID(s)] {
					t.Fatalf("note %d of publisher %d at port %d: reference says %v, table says %v",
						i, p, s, in.due(s, p, i), links[subID(s)])
				}
				if in.due(s, p, i) {
					due++
				}
			}
		}
	}
	if share := float64(due) / float64(2*2*poolSize); share < 0.5 || share > 0.98 {
		t.Errorf("%.2f of the (note, port) pairs are due: the fan-out set should match most notes but not all", share)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, _ := genInputs(wlMesh, 7)
	b, _ := genInputs(wlMesh, 7)
	c, _ := genInputs(wlMesh, 8)
	if fmt.Sprint(a.pool[1][:8], a.ports[1][:8]) != fmt.Sprint(b.pool[1][:8], b.ports[1][:8]) {
		t.Error("same seed, different inputs")
	}
	if fmt.Sprint(a.pool[1][:8]) == fmt.Sprint(c.pool[1][:8]) {
		t.Error("different seeds, same notes")
	}
	if _, err := genInputs("no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handle", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "encode", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "send", Start: 25, End: 45},    // overlaps encode: union 20..45
		{ID: 5, Parent: 1, Name: "handle", Start: 70, End: 120}, // outlives root: clipped to 70..100
		{ID: 6, Parent: 5, Name: "encode", Start: 75, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":   100 - (50 + 30),      // 10..60 and 70..100 covered
		"handle": (50 - 25) + (50 - 5), // first minus 20..45, second minus 75..80
		"encode": 10 + 5,
		"send":   20,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestCatchUpTimes(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	deliveredAt := []time.Time{at(1), at(2), {}, at(40), at(41)}
	hands := []handover{
		{at: at(30), published: 3}, // note 2 was lost: the next one delivered ends the catch-up
		{at: at(0), published: 0},  // nothing published before: no sample
		{at: at(50), published: 9}, // never caught up: no sample
	}
	got := catchUpTimes(hands, deliveredAt)
	if len(got) != 1 || got[0] != 10 {
		t.Errorf("catch-up times %v, want [10]", got)
	}
}

// The rebuilt path must deliver exactly what the reference matcher expects,
// on every workload's topology (sockets left out: the codec still runs).
func TestPathDeliversWhatTheOracleExpects(t *testing.T) {
	for _, wl := range workloadNames {
		in, err := genInputs(wl, 11)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(1 << 12)
		got, _ := newPath(in).route(in, 200, rec)
		if want := expectedTallies(in, 200); got != want || want == 0 {
			t.Errorf("%s: path delivered %d, oracle expects %d", wl, got, want)
		}
		for _, s := range rec.spans {
			if s.End < s.Start || (s.Name != "path.glue" && s.Parent == 0) {
				t.Fatalf("%s: malformed span %+v", wl, s)
			}
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in the code are what
// the program prints. They must name the same things.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q declared, %q implemented", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d implemented", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: declared %s [%s], implemented %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
