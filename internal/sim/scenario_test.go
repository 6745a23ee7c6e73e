package sim

import (
	"testing"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/movement"
)

func runScenario(t *testing.T, s Scenario) Outcome {
	t.Helper()
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func baseScenario(g *movement.Graph) Scenario {
	return Scenario{
		Graph:           g,
		Replication:     ReplicationPreSubscribe,
		Duration:        2 * time.Second,
		PublishInterval: 5 * time.Millisecond,
		NumMobiles:      2,
		Seed:            42,
	}
}

func TestScenarioHeadlineShape(t *testing.T) {
	// The paper's core claim (E5): pre-subscriptions recover pre-arrival
	// traffic that the reactive baseline misses, at a fraction of
	// flooding's replica footprint.
	g := movement.Line(6)

	replicated := baseScenario(g)
	replicated.Name = "replicated"
	repOut := runScenario(t, replicated)

	reactive := baseScenario(g)
	reactive.Name = "reactive"
	reactive.Replication = ReplicationReactive
	reaOut := runScenario(t, reactive)

	flooding := baseScenario(g)
	flooding.Name = "flooding"
	flooding.Graph = g // movement stays on the line...
	// ...but replicas go everywhere: nlb = complete graph.
	flooding.Graph = movement.Line(6)
	floOut := runScenario(t, flooding)
	_ = floOut

	if repOut.PreArrivalExpected == 0 {
		t.Fatal("oracle found no pre-arrival-relevant traffic; scenario broken")
	}
	if repOut.PreArrivalCoverage() < 0.9 {
		t.Errorf("replicated pre-arrival coverage = %.2f, want >= 0.9 (got %d/%d)",
			repOut.PreArrivalCoverage(), repOut.PreArrivalGot, repOut.PreArrivalExpected)
	}
	if reaOut.PreArrivalCoverage() > 0.2 {
		t.Errorf("reactive pre-arrival coverage = %.2f, want ~0",
			reaOut.PreArrivalCoverage())
	}
	if repOut.LiveCoverage() < 0.95 {
		t.Errorf("replicated live coverage = %.2f", repOut.LiveCoverage())
	}
	if reaOut.LiveCoverage() < 0.9 {
		t.Errorf("reactive live coverage = %.2f (live traffic should flow)",
			reaOut.LiveCoverage())
	}
}

func TestScenarioStaticStreamLossless(t *testing.T) {
	g := movement.Line(4)
	s := Scenario{
		Graph:        g,
		StaticOnly:   true,
		StaticStream: true,
		Mobility:     MobilityTransparent,
		Duration:     2 * time.Second,
		Seed:         7,
	}
	out := runScenario(t, s)
	if out.StaticExpected == 0 {
		t.Fatal("oracle found no static traffic")
	}
	if out.StaticLoss() != 0 {
		t.Errorf("transparent mobility lost %d of %d static notifications",
			out.StaticLoss(), out.StaticExpected)
	}
	if out.FIFOViolations != 0 {
		t.Errorf("FIFO violations = %d", out.FIFOViolations)
	}
	if out.Duplicates != 0 {
		t.Errorf("duplicates = %d", out.Duplicates)
	}
}

func TestScenarioNaiveLosesStaticTraffic(t *testing.T) {
	g := movement.Line(4)
	s := Scenario{
		Graph:        g,
		StaticOnly:   true,
		StaticStream: true,
		Mobility:     MobilityNaive,
		Duration:     2 * time.Second,
		Seed:         7,
	}
	out := runScenario(t, s)
	if out.StaticLoss() == 0 {
		t.Error("naive mode should lose disconnection-gap traffic")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	g := movement.Grid(3, 3)
	s := baseScenario(g)
	a := runScenario(t, s)
	b := runScenario(t, s)
	if a != b {
		t.Errorf("same seed produced different outcomes:\n%+v\n%+v", a, b)
	}
}

// TestScenarioOutcomeGolden pins sim-logical's shape — a 4×4 grid, the
// replicator pre-subscribing, the static stock stream, 30 roaming
// subscribers — to outcomes recorded before the simulator's event loop,
// the replicator's port lookup, filter-key rendering and the scenario
// oracle were rewritten for speed. Unlike TestScenarioDeterminism, which
// compares a build with itself, it catches drift against that recording:
// every counter, including TotalBytes, must match exactly. ControlMsgs,
// DataMsgs and TotalBytes were re-recorded when the handover's two flush
// waves were deleted (at seed 2003, 32 160 flush messages went, and the
// shorter handovers moved 33 more deliver hops and 8 fewer publish hops).
// DataMsgs, TotalBytes and TableEntries were re-recorded when a broker's
// virtual clients came to share one routing entry per resolved filter (at
// seed 2003, 36 840 subscribe and unsubscribe messages went, and the
// tables hold 736 entries instead of 2 432). DataMsgs and TotalBytes were
// re-recorded when a relocation flip stopped going to brokers off the
// handover path and the old border's stragglers came to ride the tail
// instead of one deliver unicast each (at seed 2003, DataMsgs 29 012 →
// 25 559). DataMsgs and TotalBytes were re-recorded when a handover's
// replay came to reach the client in one deliver message instead of one
// per note (at seed 2003, DataMsgs 25 559 → 19 154, TotalBytes
// 2 709 282 → 2 576 971). Every delivery, loss, duplicate and FIFO
// counter kept its value, as did the mobility manager's relocation,
// replay, tail and merge-dedup counts, recorded before that change.
func TestScenarioOutcomeGolden(t *testing.T) {
	golden := map[int64]Outcome{
		2003: {PreArrivalExpected: 5349, PreArrivalGot: 5257, LiveExpected: 1256, LiveGot: 1256,
			FirstDeliveryLatency: 2 * time.Millisecond, FirstDeliverySamples: 536,
			StaticExpected: 5910, StaticGot: 5910, Handovers: 536,
			ControlMsgs: 8559, DataMsgs: 19154, DirectMsgs: 2448, TotalBytes: 2576971,
			Buffered: 19684, Replayed: 5880, Wasted: 13291, PeakResidentVC: 135,
			TableEntries: 736, BufferedBytes: 35098,
			Relocations: 536, MobilityReplayed: 1597, TapForwarded: 520, DuplicatesDropped: 248},
		7: {PreArrivalExpected: 5338, PreArrivalGot: 5251, LiveExpected: 1254, LiveGot: 1254,
			FirstDeliveryLatency: 2 * time.Millisecond, FirstDeliverySamples: 535,
			StaticExpected: 5910, StaticGot: 5910, Handovers: 535,
			ControlMsgs: 8948, DataMsgs: 19184, DirectMsgs: 2387, TotalBytes: 2623873,
			Buffered: 19419, Replayed: 5874, Wasted: 13034, PeakResidentVC: 132,
			TableEntries: 736, BufferedBytes: 34998,
			Relocations: 535, MobilityReplayed: 1662, TapForwarded: 547, DuplicatesDropped: 261},
		11: {PreArrivalExpected: 5316, PreArrivalGot: 5257, LiveExpected: 1276, LiveGot: 1276,
			FirstDeliveryLatency: 2 * time.Millisecond, FirstDeliverySamples: 533,
			StaticExpected: 5910, StaticGot: 5910, Handovers: 533,
			ControlMsgs: 8782, DataMsgs: 19214, DirectMsgs: 2329, TotalBytes: 2618783,
			Buffered: 19097, Replayed: 5892, Wasted: 12697, PeakResidentVC: 129,
			TableEntries: 736, BufferedBytes: 34854,
			Relocations: 533, MobilityReplayed: 1649, TapForwarded: 540, DuplicatesDropped: 258},
	}
	for _, seed := range []int64{2003, 7, 11} {
		got := runScenario(t, Scenario{
			Graph:        movement.Grid(4, 4),
			Replication:  ReplicationPreSubscribe,
			StaticStream: true,
			NumMobiles:   30,
			Duration:     time.Second,
			Seed:         seed,
		})
		if want := golden[seed]; got != want {
			t.Errorf("seed %d:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestOracleWindowBounds: the oracle's windows exclude both ends, as the
// scan they replaced did.
func TestOracleWindowBounds(t *testing.T) {
	t0 := time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var recs []pubRecord
	for _, ms := range []int{1, 2, 2, 3, 4, 4, 5} {
		recs = append(recs, pubRecord{id: message.NotificationID{Seq: uint64(len(recs))}, at: at(ms)})
	}
	for _, c := range []struct{ from, to, want int }{
		{2, 4, 1}, // just the 3
		{1, 5, 5},
		{0, 6, 7},
		{2, 2, 0},
		{4, 2, 0}, // empty when to precedes from
		{5, 9, 0},
	} {
		got := window(recs, at(c.from), at(c.to))
		if len(got) != c.want {
			t.Errorf("window(%d, %d) holds %d records, want %d", c.from, c.to, len(got), c.want)
		}
		for _, r := range got {
			if !r.at.After(at(c.from)) || !r.at.Before(at(c.to)) {
				t.Errorf("window(%d, %d) holds a record at %v", c.from, c.to, r.at.Sub(t0))
			}
		}
	}
}

func TestScenarioSeedSensitivity(t *testing.T) {
	g := movement.Grid(3, 3)
	s1 := baseScenario(g)
	s2 := baseScenario(g)
	s2.Seed = 43
	a := runScenario(t, s1)
	b := runScenario(t, s2)
	if a == b {
		t.Error("different seeds produced identical outcomes (suspicious)")
	}
}

func TestScenarioFloodingNlbCost(t *testing.T) {
	// E6's degenerate case: nlb = everywhere means replicas everywhere.
	line := baseScenario(movement.Line(6))
	line.Name = "line"
	lineOut := runScenario(t, line)

	full := baseScenario(movement.Complete(6))
	full.Name = "complete"
	full.Model = movement.RandomWalk{Graph: movement.Line(6), Spec: movement.DwellSpec{
		Dwell: 50 * time.Millisecond, Jitter: 10 * time.Millisecond, Gap: 5 * time.Millisecond,
	}}
	fullOut := runScenario(t, full)

	if fullOut.PeakResidentVC <= lineOut.PeakResidentVC {
		t.Errorf("complete-graph nlb should host more replicas: %d vs %d",
			fullOut.PeakResidentVC, lineOut.PeakResidentVC)
	}
	if fullOut.Wasted+fullOut.Buffered <= lineOut.Wasted+lineOut.Buffered {
		t.Errorf("flooding should buffer more: %d vs %d",
			fullOut.Wasted+fullOut.Buffered, lineOut.Wasted+lineOut.Buffered)
	}
}

func TestScenarioBufferPolicyBoundsMemory(t *testing.T) {
	unbounded := baseScenario(movement.Line(5))
	unbounded.NumMobiles = 3
	ubOut := runScenario(t, unbounded)

	capped := baseScenario(movement.Line(5))
	capped.NumMobiles = 3
	capped.BufferCap = 5
	capOut := runScenario(t, capped)

	if ubOut.PreArrivalExpected == 0 {
		t.Fatal("no pre-arrival traffic")
	}
	// Capped buffers trade coverage for memory; both must stay sane.
	if capOut.PreArrivalCoverage() > ubOut.PreArrivalCoverage()+1e-9 {
		t.Error("capped buffers cannot beat unbounded coverage")
	}
}

func TestScenarioMobilityModesComparable(t *testing.T) {
	for _, mode := range []MobilityMode{MobilityTransparent, MobilityJEDI, MobilityNaive} {
		s := Scenario{
			Graph:        movement.Line(4),
			StaticOnly:   true,
			StaticStream: true,
			Mobility:     mode,
			Duration:     time.Second,
			Seed:         3,
		}
		out := runScenario(t, s)
		if out.StaticExpected == 0 {
			t.Errorf("mode %v: no traffic", mode)
		}
		if out.StaticGot > out.StaticExpected {
			t.Errorf("mode %v: got more than expected (%d > %d) — oracle bug",
				mode, out.StaticGot, out.StaticExpected)
		}
	}
}
