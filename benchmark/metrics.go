package main

import (
	"fmt"
	"time"
)

// metricDef names a metric and fixes its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the deployed system sees, in print
// order. Every workload reports every one of them (the driver's contract),
// so each has one meaning that holds on all four workloads; README.md
// spells out what it reads on each. BENCHMARK.json repeats the names with
// direction and bound (a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"notes_per_s", "1/s"},
	{"cpu_us_per_note", "us"},
	{"latency_p50_us", "us"},
	{"msgs_per_delivery", "count"},
	{"delivered_frac", "ratio"},
}

// units maps every metric name to its unit; naming a metric that is in
// neither table is a bug in the benchmark and panics.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func unit(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	return u
}

func runWorkload(name string, seed int64, seconds float64, trace bool, outDir string) (*report, error) {
	t0 := time.Now()
	in, err := genInputs(name, seed)
	if err != nil {
		return nil, err
	}
	cool, err := keepWarm()
	if err != nil {
		return nil, err
	}
	defer cool()
	rep := &report{Workload: name, Seed: seed, Correct: true, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	var cpuNsPerNote float64
	if name == wlSim {
		res, err := runSim(seed, seconds)
		if err != nil {
			return nil, err
		}
		cpuNsPerNote = rep.fromSim(res)
	} else {
		res, err := runLive(in, seconds, outDir)
		if err != nil {
			return nil, err
		}
		cpuNsPerNote = rep.fromLive(in, res, seconds)
	}
	if trace {
		if err := rep.addLayers(in, cpuNsPerNote, outDir); err != nil {
			return nil, err
		}
	}
	rep.Elapsed = time.Since(t0)
	return rep, nil
}

func (r *report) e2e(name string, v float64)   { r.EndToEnd[name] = metric{v, unit(name)} }
func (r *report) layer(name string, v float64) { r.PerLayer[name] = metric{v, unit(name)} }
func (r *report) note(format string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(format, a...)) }

// fail records the first failed correctness check.
func (r *report) fail(format string, a ...any) {
	if r.Correct {
		r.Correct = false
		r.Why = fmt.Sprintf(format, a...)
	}
}

// timing reports a sample as its median plus the highest percentile that
// still has ten samples beyond it, with the sample count.
func (r *report) timing(what, u string, sample []float64) (p50 float64, sorted []float64) {
	sorted = sortedCopy(sample)
	p50 = percentile(sorted, 50)
	if hp := highestPercentile(len(sorted)); hp > 0 {
		r.note("%s: n=%d p50=%.4g %s p%v=%.4g %s", what, len(sorted), p50, u, hp, percentile(sorted, hp), u)
	} else {
		r.note("%s: n=%d p50=%.4g %s (too few samples for a tail)", what, len(sorted), p50, u)
	}
	return p50, sorted
}

// fromLive turns a live run into metrics and returns the CPU the run spent
// per delivered note in ns (the yardstick of the traced pass's budget).
func (r *report) fromLive(in *inputs, res *liveResult, seconds float64) float64 {
	t := res.tally
	// attempted: deliveries the reference matcher expects. failed: the ones
	// the oracle rejects — duplicated, out of order, not due — plus publish
	// errors, plus everything still missing if the run hit its hang guard.
	// A note the middleware drops at a handover is not an operation failing
	// but the quality this run measures: it lowers delivered_frac (gated)
	// and is counted in mobility.lost.
	r.Attempted, r.Failed = t.expected, t.dup+t.fifo+t.spurious+res.pubErrs
	if res.timedOut {
		r.Failed += t.lost
	}
	delivered := float64(t.delivered)
	if t.delivered == 0 {
		r.fail("nothing was delivered")
		delivered = 1 // keep the ratios finite; the run is already marked wrong
	}
	wall := res.wall.Seconds()
	cpu := res.after.cpu - res.before.cpu

	r.e2e("setup_s", median(res.setupS))
	r.e2e("notes_per_s", delivered/wall)
	r.e2e("cpu_us_per_note", float64(cpu.Microseconds())/delivered)
	var all []float64
	for _, sec := range res.latUs {
		all = append(all, sec...)
	}
	_, lat := r.timing("latency (delivery − due)", "us", all)
	r.e2e("latency_p50_us", typicalMedian(res.latUs))
	r.e2e("msgs_per_delivery", float64(res.brokerMsg)/delivered)
	frac := float64(max(t.expected-t.failed(), 0)) / float64(max(t.expected, 1))
	r.e2e("delivered_frac", frac)

	r.layer("mobility.lost", float64(t.lost))
	r.layer("mobility.dup", float64(t.dup))
	r.layer("mobility.fifo", float64(t.fifo))
	r.layer("overlay.pending_peak", float64(res.pendPeak))
	r.layer("overlay.dropped", float64(res.dropped))
	r.procLayers(res.before, res.after, delivered)
	r.layer("loadgen.latency_p90_us", percentile(lat, 90))
	r.layer("loadgen.latency_p99_us", percentile(lat, 99))
	r.layer("loadgen.latency_p999_us", percentile(lat, 99.9))
	late := sortedCopy(res.lateUs)
	r.layer("loadgen.late_p50_us", percentile(late, 50))
	r.layer("loadgen.late_p99_us", percentile(late, 99))
	r.layer("loadgen.achieved_rate", float64(res.published)/seconds)
	if len(res.handMs) > 0 {
		hp50, hand := r.timing("handover (Connect → caught up)", "ms", res.handMs)
		r.layer("loadgen.handover_p50_ms", hp50)
		r.layer("loadgen.handover_p90_ms", percentile(hand, 90))
	}

	r.note("published %d, expected %d deliveries, delivered %d, lost %d, dup %d, fifo %d, spurious %d, publish errors %d",
		res.published, t.expected, t.delivered, t.lost, t.dup, t.fifo, t.spurious, res.pubErrs)
	switch {
	case res.timedOut:
		r.fail("hit the hang guard with %d deliveries outstanding", t.lost)
	case t.dup+t.fifo+t.spurious+res.pubErrs > 0:
		r.fail("%d duplicate, %d out-of-order, %d spurious deliveries, %d publish errors", t.dup, t.fifo, t.spurious, res.pubErrs)
	case frac < minDeliveredFrac:
		r.fail("only %.4f of the expected deliveries arrived (floor %.2f)", frac, minDeliveredFrac)
	}
	if target := pacedTarget(in.workload); target > 0 {
		if got := float64(res.published) / seconds; got < minPacedRatio*target {
			r.fail("open loop ran at %.0f/s, below %.0f%% of the %.0f/s target: the numbers are not valid", got, 100*minPacedRatio, target)
		}
	}
	return float64(cpu.Nanoseconds()) / delivered
}

// procLayers reports the process-wide deltas of a run over `notes`
// deliveries. The RSS peak is the process's lifetime peak: compare it
// between runs of one workload per process, as the driver makes them.
func (r *report) procLayers(before, after procStat, notes float64) {
	r.layer("proc.allocs_per_note", float64(after.mallocs-before.mallocs)/notes)
	r.layer("proc.gc_pause_ms", float64(after.gcPause-before.gcPause)/float64(time.Millisecond))
	r.layer("proc.rss_peak_mb", float64(after.maxRSSkB)/1024)
}

// minBucket is the fewest samples a one-second interval needs to count
// (the last interval of a run holds only the drain).
const minBucket = 30

// typicalMedian is the latency a note sees at a typical moment of the run:
// the median over the run's one-second intervals of each interval's median.
// On the paced workloads it equals the plain median. On the closed loop it
// weights by time instead of by note count, so that a short fast phase
// that happens to carry most of the notes (tree-steady's first 65 536) does
// not decide the figure, and a burst cannot either.
func typicalMedian(bySecond [][]float64) float64 {
	var medians []float64
	for _, sec := range bySecond {
		if len(sec) >= minBucket {
			medians = append(medians, percentile(sortedCopy(sec), 50))
		}
	}
	if len(medians) == 0 { // a run shorter than it takes to fill one interval
		var all []float64
		for _, sec := range bySecond {
			all = append(all, sec...)
		}
		return percentile(sortedCopy(all), 50)
	}
	return percentile(sortedCopy(medians), 50)
}

// pacedTarget is the open-loop workloads' offered rate over all publishers
// (0 for the closed loop).
func pacedTarget(workload string) float64 {
	switch workload {
	case wlMesh:
		return 2 * meshRate
	case wlRoaming:
		return roamRate
	}
	return 0
}

// fromSim turns the simulated run into metrics. A virtual clock has no
// queueing, so the only latency a user sees is the service time per note.
func (r *report) fromSim(res *simResult) float64 {
	o := res.outcome
	bad := o.StaticLoss() + o.Duplicates + o.FIFOViolations
	r.Attempted, r.Failed = o.StaticExpected, bad
	del := float64(delivered(o))
	if del == 0 {
		r.fail("nothing was delivered")
		del = 1
	}
	wall, perNoteUs := 0.0, make([]float64, len(res.wallS))
	for i, w := range res.wallS {
		wall += w
		perNoteUs[i] = w * 1e6 / del
	}
	runs := float64(len(res.wallS))
	cpu := res.after.cpu - res.before.cpu
	msgs := float64(carried(o))

	r.e2e("setup_s", median(res.setupS))
	r.e2e("notes_per_s", runs*del/wall)
	r.e2e("cpu_us_per_note", float64(cpu.Microseconds())/(runs*del))
	r.e2e("latency_p50_us", median(perNoteUs))
	r.e2e("msgs_per_delivery", msgs/del)
	// Everything the scenario's oracle expected, over everything it got in
	// order and once: static-stream integrity and pre-arrival coverage in
	// one figure.
	r.e2e("delivered_frac", (del-float64(o.Duplicates+o.FIFOViolations))/float64(max(expectedDeliveries(o), 1)))

	r.layer("sim.msgs_per_s", runs*msgs/wall)
	r.layer("sim.msgs_total", msgs)
	r.layer("sim.handovers", float64(o.Handovers))
	r.layer("sim.ctrl_msgs", float64(o.ControlMsgs))
	r.layer("sim.data_msgs", float64(o.DataMsgs))
	r.layer("sim.direct_msgs", float64(o.DirectMsgs))
	r.layer("core.pre_arrival_coverage", o.PreArrivalCoverage())
	r.layer("core.replicas_peak", float64(o.PeakResidentVC))
	r.layer("core.buffered", float64(o.Buffered))
	r.layer("core.replayed", float64(o.Replayed))
	r.layer("core.wasted", float64(o.Wasted))
	r.layer("core.replay_hit_ratio", float64(o.Replayed)/float64(max(o.Buffered, 1)))
	r.layer("core.first_delivery_ms", float64(o.FirstDeliveryLatency)/float64(time.Millisecond))
	r.layer("mobility.lost", float64(o.StaticLoss()))
	r.layer("mobility.dup", float64(o.Duplicates))
	r.layer("mobility.fifo", float64(o.FIFOViolations))
	r.procLayers(res.before, res.after, runs*del)

	r.note("%d identical runs of %d simulated handovers: %d messages carried, %d of %d expected deliveries (static %d/%d, live %d/%d, pre-arrival %d/%d)",
		len(res.wallS), o.Handovers, carried(o), delivered(o), expectedDeliveries(o),
		o.StaticGot, o.StaticExpected, o.LiveGot, o.LiveExpected, o.PreArrivalGot, o.PreArrivalExpected)
	if bad > 0 {
		r.fail("static stream: %d lost, %d duplicated, %d out of order", o.StaticLoss(), o.Duplicates, o.FIFOViolations)
	}
	return float64(cpu.Nanoseconds()) / (runs * del)
}
