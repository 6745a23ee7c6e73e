package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rebeca"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Live workload constants. The three live runs share one length
// (-seconds); these are the shapes ISSUE 12 fixes.
const (
	treeWindow = 256  // closed-loop notes in flight on tree-steady
	meshRate   = 1000 // notes/s per publisher on mesh-fanout-paced
	// notes/s on roaming-durable. ISSUE 12 asked for 2000; at that rate the
	// process idles between notes and cpu_us_per_note follows the host's
	// wake-up cost: IQR/median 0.13 over 8 runs even with the CPU warmers,
	// 0.07 at 6000 (and ±13 % against ±6 % without them), where the driver's
	// contract asks for spreads under a third of the 0.25 bound.
	roamRate      = 6000
	roamPeriod    = 250 * time.Millisecond
	roamAway      = 50 * time.Millisecond
	setupReps     = 5 // set-ups per run; setup_s is their median
	minPacedRatio = 0.98
	drainQuiet    = time.Second
	// minDeliveredFrac is the floor under which a run is wrong, not merely
	// lossy: the handover loss roaming-durable exists to show is 0.05 %.
	minDeliveredFrac = 0.99
)

// roamCycle is the subscriber's tour on the 3-broker line.
var roamCycle = []rebeca.NodeID{"B0", "B1", "B2", "B1"}

// msgCounter is the one stage the benchmark adds to every broker's chain:
// it counts the messages brokers handle (control and data), the numerator
// of msgs_per_delivery. A single shared atomic add per message is the
// whole cost; it is installed identically on every commit measured.
type msgCounter struct {
	rebeca.PassMiddleware
	n atomic.Int64
}

func (c *msgCounter) OnMessage(_ *rebeca.Broker, _ rebeca.NodeID, _ proto.Message, next func()) {
	c.n.Add(1)
	next()
}

// deployment is one set-up system ready to carry a workload.
type deployment struct {
	live    *rebeca.Live
	pubs    []rebeca.Port
	subs    []rebeca.Port
	streams []<-chan rebeca.Delivery // one per subscriber port
	msgs    *msgCounter
	dir     string // WAL directory (roaming-durable), removed on close
}

func (d *deployment) close() {
	_ = d.live.Close()
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// build constructs the workload's deployment, connects its ports, installs
// its subscriptions and settles: everything setup_s times.
func build(in *inputs, outDir string) (*deployment, error) {
	d := &deployment{msgs: &msgCounter{}}
	opts := []rebeca.Option{
		rebeca.WithMiddleware(d.msgs),
		// The quiet window the repository's own live benchmark uses; the
		// 50 ms default returns early now and then under 1000 subscriptions.
		rebeca.WithSettleWindow(100*time.Millisecond, 10*time.Second),
	}
	if in.workload == wlSim {
		return nil, fmt.Errorf("%s is not a live workload", in.workload)
	}
	opts = append(opts, rebeca.WithMovement(graphOf(in.workload)))
	switch in.workload {
	case wlMesh:
		opts = append(opts, rebeca.WithMeshRouting())
	case wlRoaming:
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		// fsync off: disk latency is not measurable in a sandbox; the WAL's
		// encode + write + ack/compact path is.
		wal, err := rebeca.OpenWAL(dir, rebeca.WALNoSync())
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		opts = append(opts, rebeca.WithDurable(wal))
	}
	pubAt, subAt := placement(in)
	live, err := rebeca.NewLive(opts...)
	if err != nil {
		if d.dir != "" {
			_ = os.RemoveAll(d.dir)
		}
		return nil, err
	}
	d.live = live
	// Let the overlay links establish (and the mesh elect its tree) before
	// any client attaches: subscriptions issued while the ring is still
	// coming up were lost in about one mesh set-up in seven (5–8 % of that
	// port's deliveries for the whole run), which is a finding recorded in
	// the README, not the steady state these workloads measure.
	live.Settle()
	for s, at := range subAt {
		port := live.NewClient(subID(s))
		if err := port.Connect(at); err != nil {
			d.close()
			return nil, fmt.Errorf("connect %s to %s: %w", port.ID(), at, err)
		}
		d.subs = append(d.subs, port)
		switch in.workload {
		case wlMesh:
			// 500 subscriptions, one consumer: the port's catch-all stream
			// carries each note once. The per-subscription streams nobody
			// reads are kept at one slot so they cost a failed send, not a
			// drop-oldest shuffle.
			for _, f := range in.ports[s] {
				port.Subscribe(f, rebeca.WithStreamBuffer(1), rebeca.WithOverflow(rebeca.DropNewest))
			}
			d.streams = append(d.streams, port.Events())
		case wlRoaming:
			sub := port.Subscribe(in.ports[s][0], rebeca.Durable("d"),
				rebeca.WithStreamBuffer(1024), rebeca.WithOverflow(rebeca.Block))
			d.streams = append(d.streams, sub.Events())
		default:
			sub := port.Subscribe(in.ports[s][0],
				rebeca.WithStreamBuffer(1024), rebeca.WithOverflow(rebeca.Block))
			d.streams = append(d.streams, sub.Events())
		}
	}
	for p, at := range pubAt {
		port := live.NewClient(pubID(p))
		if err := port.Connect(at); err != nil {
			d.close()
			return nil, fmt.Errorf("connect %s to %s: %w", port.ID(), at, err)
		}
		d.pubs = append(d.pubs, port)
	}
	live.Settle()
	return d, nil
}

// procStat is the process-wide cost snapshot the live metrics are deltas
// of. It covers the whole process: brokers, client library and the load
// generator share it, which is why the generator sleeps rather than spins.
type procStat struct {
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	maxRSSkB int64
}

func readProc() procStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procStat{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		mallocs:  ms.Mallocs,
		gcPause:  time.Duration(ms.PauseTotalNs),
		maxRSSkB: ru.Maxrss,
	}
}

// handover is one reconnect of the roaming subscriber: when Connect was
// called and how many notes had been published by then.
type handover struct {
	at        time.Time
	published int
}

// liveResult is what one live run measured, before it is turned into
// named metrics.
type liveResult struct {
	setupS    []float64
	wall      time.Duration
	before    procStat
	after     procStat
	published int
	pubErrs   int
	tally     oracleTally
	latUs     [][]float64 // delivery − due per fresh delivery, by second of the run it arrived in
	lateUs    []float64   // send start − due, per paced send
	handMs    []float64   // catch-up time per handover
	brokerMsg int64
	pendPeak  int
	dropped   int
	timedOut  bool
}

// runLive sets the workload up setupReps times (keeping the last), drives
// it for the given length and checks every delivery against the oracle.
func runLive(in *inputs, seconds float64, outDir string) (*liveResult, error) {
	res := &liveResult{}
	var dep *deployment
	for r := 0; r < setupReps; r++ {
		if dep != nil {
			dep.close()
		}
		t0 := time.Now()
		d, err := build(in, outDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		dep = d
	}
	defer dep.close()

	length := time.Duration(seconds * float64(time.Second))
	stopSampling := sampleLinks(dep.live, res)
	msgs0 := dep.msgs.n.Load()
	runtime.GC() // start every run from a collected heap
	res.before = readProc()
	start := time.Now()
	or := newOracle(in, len(dep.subs), start)
	// Every wait below ends at a deadline, 2× the run length past what it
	// waits for: a hang becomes a number.
	hardStop := start.Add(3 * length)

	published := make([]atomic.Int64, len(dep.pubs))
	var pubErrs atomic.Int64
	publish := func(p, i int) bool {
		published[p].Add(1)
		if _, err := dep.pubs[p].Publish(in.attrs(p, i)); err != nil {
			pubErrs.Add(1)
			return false
		}
		return time.Now().Before(hardStop)
	}

	// Generator side (≤ 2 goroutines) and the per-delivery hook differ per
	// workload; the consumers, the waits and the accounting do not.
	var gens sync.WaitGroup
	latUs := make([][][]float64, len(dep.subs)) // [port][second]: one consumer per port
	var dueAt func(p, i int) time.Time
	var afterFresh func(i int, at time.Time)
	lateUs := make([][]float64, len(dep.pubs))
	var hands []handover
	var deliveredAt []time.Time // roaming: delivery time by note index

	switch in.workload {
	case wlTree:
		win := newWindow(treeWindow)
		// sentAt[i%treeWindow] is note i's send time in ns since start:
		// written after acquiring the window, read before releasing it.
		sentAt := make([]atomic.Int64, treeWindow)
		dueAt = func(_, i int) time.Time {
			return start.Add(time.Duration(sentAt[i%treeWindow].Load()))
		}
		afterFresh = func(int, time.Time) { win.release() }
		gens.Add(1)
		go func() {
			defer gens.Done()
			end := start.Add(length)
			for i := 0; time.Now().Before(end) && win.acquire(end); i++ {
				sentAt[i%treeWindow].Store(int64(time.Since(start)))
				if !publish(0, i) {
					return
				}
			}
		}()
	case wlMesh, wlRoaming:
		rate := meshRate
		if in.workload == wlRoaming {
			rate = roamRate
		}
		// Publishers are independent users: same rate, schedules staggered
		// evenly within one period rather than firing on the same instant.
		interval := time.Second / time.Duration(rate)
		plans := make([]schedule, len(dep.pubs))
		for p := range plans {
			plans[p] = schedule{start: start.Add(interval * time.Duration(p) / time.Duration(len(plans))), interval: interval}
		}
		dueAt = func(p, i int) time.Time { return plans[p].due(i) }
		for p := range dep.pubs {
			gens.Add(1)
			go func() {
				defer gens.Done()
				lateUs[p] = pace(plans[p], int(seconds*float64(rate)), wallClock,
					func(i int) bool { return publish(p, i) })
			}()
		}
		if in.workload == wlRoaming {
			afterFresh = func(i int, at time.Time) {
				for len(deliveredAt) <= i {
					deliveredAt = append(deliveredAt, time.Time{})
				}
				deliveredAt[i] = at
			}
			gens.Add(1)
			go func() {
				defer gens.Done()
				hands = roam(dep.subs[0], start, length, &published[0])
			}()
		}
	}

	stop := make(chan struct{})
	var consumers sync.WaitGroup
	for s := range dep.streams {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				select {
				case d, ok := <-dep.streams[s]:
					if !ok {
						return
					}
					if p, i, fresh := or.record(s, d); fresh {
						sec := int(d.At.Sub(start) / time.Second)
						for len(latUs[s]) <= sec {
							latUs[s] = append(latUs[s], nil)
						}
						latUs[s][sec] = append(latUs[s][sec], usBetween(dueAt(p, i), d.At))
						if afterFresh != nil {
							afterFresh(i, d.At)
						}
					}
				case <-stop:
					return
				}
			}
		}()
	}

	// Wait for the generators, then for the last expected delivery; what is
	// still missing at the deadline is charged as lost instead of hanging.
	if !waitUntil(hardStop, gens.Wait) {
		res.timedOut = true
		dep.close() // fails a blocked Publish so its goroutine returns
		gens.Wait()
	}
	counts := make([]int, len(published))
	for p := range published {
		counts[p] = int(published[p].Load())
		res.published += counts[p]
	}
	res.pubErrs = int(pubErrs.Load())
	// Drain: until the last expected delivery, or until nothing has arrived
	// for drainQuiet (what is still missing then was dropped, not delayed),
	// or until the hard deadline.
	expected := int64(or.expect(counts))
	gensDone := time.Now()
	drainBy := gensDone.Add(2 * length)
	idle := func() time.Duration {
		if last := start.Add(time.Duration(or.lastAt.Load())); last.After(gensDone) {
			return time.Since(last)
		}
		return time.Since(gensDone)
	}
	for or.fresh.Load() < expected && idle() < drainQuiet {
		if time.Now().After(drainBy) {
			res.timedOut = true // still trickling in after 2× the run length
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.wall = time.Duration(or.lastAt.Load())
	res.after = readProc()
	res.brokerMsg = dep.msgs.n.Load() - msgs0
	close(stop)
	consumers.Wait()
	stopSampling()

	res.tally = or.finish(counts)
	for _, port := range latUs {
		for sec, l := range port {
			for len(res.latUs) <= sec {
				res.latUs = append(res.latUs, nil)
			}
			res.latUs[sec] = append(res.latUs[sec], l...)
		}
	}
	for _, l := range lateUs {
		res.lateUs = append(res.lateUs, l...)
	}
	res.handMs = catchUpTimes(hands, deliveredAt)
	return res, nil
}

// roam walks the subscriber round roamCycle: connected for the rest of
// each period, away for roamAway, then Connect to the next broker. It
// stops with the run and leaves the subscriber connected.
func roam(sub rebeca.Port, start time.Time, length time.Duration, published *atomic.Int64) []handover {
	var hands []handover
	plan := schedule{start: start, interval: roamPeriod}
	for n := 1; ; n++ {
		reconnect := plan.due(n)
		if reconnect.Sub(start) >= length {
			return hands
		}
		nanosleep(time.Until(reconnect.Add(-roamAway)))
		_ = sub.Disconnect() // a failed teardown still leaves the port down
		nanosleep(time.Until(reconnect))
		h := handover{at: time.Now(), published: int(published.Load())}
		if err := sub.Connect(roamCycle[n%len(roamCycle)]); err != nil {
			// The oracle charges whatever the lost connection costs.
			continue
		}
		hands = append(hands, h)
	}
}

// catchUpTimes turns handovers into catch-up times: from the Connect call
// until the subscriber holds every note published before that call. With
// per-publisher FIFO that is the first delivery at or past the last such
// note; a handover nothing was published before, or never caught up
// after, yields no sample.
func catchUpTimes(hands []handover, deliveredAt []time.Time) []float64 {
	var out []float64
	for _, h := range hands {
		if h.published == 0 {
			continue
		}
		for i := h.published - 1; i < len(deliveredAt); i++ {
			if at := deliveredAt[i]; !at.IsZero() {
				if d := at.Sub(h.at); d > 0 {
					out = append(out, float64(d)/float64(time.Millisecond))
				} else {
					out = append(out, 0)
				}
				break
			}
		}
	}
	return out
}

// sampleLinks polls every broker's overlay links during the run for the
// deepest pending queue and the drop counters.
func sampleLinks(live *rebeca.Live, res *liveResult) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	sample := func() {
		dropped := 0
		for _, b := range live.Brokers() {
			for _, li := range live.LinkInfos(b) {
				if li.Pending > res.pendPeak {
					res.pendPeak = li.Pending
				}
				dropped += li.Dropped
			}
		}
		res.dropped = dropped
	}
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-done:
				sample()
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// waitUntil runs fn on its own goroutine and reports whether it returned
// before the deadline.
func waitUntil(deadline time.Time, fn func()) bool {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

func usBetween(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Microsecond)
}

// oracle checks every delivery of a live run against the reference
// matcher: what was due where, once, in per-publisher order.
type oracle struct {
	in    *inputs
	pubs  map[message.NodeID]int
	ports []portTally
	start time.Time
	fresh atomic.Int64 // due deliveries seen once, across ports
	// lastAt is when the latest of them arrived, in ns since start: the end
	// of the measured interval.
	lastAt atomic.Int64
}

type portTally struct {
	got      [][]bool // [publisher][note index] delivered
	last     []int    // [publisher] highest index seen
	dup      int
	fifo     int
	spurious int // not due at this port, or not a note of this run
}

// oracleTally is the verdict: expected deliveries and each way to fail.
type oracleTally struct {
	expected, delivered       int
	lost, dup, fifo, spurious int
}

func (t oracleTally) failed() int { return t.lost + t.dup + t.fifo + t.spurious }

func newOracle(in *inputs, ports int, start time.Time) *oracle {
	o := &oracle{in: in, start: start, pubs: make(map[message.NodeID]int), ports: make([]portTally, ports)}
	for p := range in.pool {
		o.pubs[pubID(p)] = p
	}
	for s := range o.ports {
		o.ports[s].got = make([][]bool, len(in.pool))
		o.ports[s].last = make([]int, len(in.pool))
		for p := range o.ports[s].last {
			o.ports[s].last[p] = -1
		}
	}
	return o
}

// record accounts one delivery at port s (called from that port's consumer
// only) and returns the note's publisher and index and whether it is a
// first, due delivery.
func (o *oracle) record(s int, d rebeca.Delivery) (p, i int, fresh bool) {
	t := &o.ports[s]
	p, known := o.pubs[d.Note.ID.Publisher]
	k, ok := d.Note.Get("k")
	if !known || !ok || k.IntVal() < 0 || uint64(k.IntVal())+1 != d.Note.ID.Seq {
		t.spurious++
		return 0, 0, false
	}
	i = int(k.IntVal())
	if !o.in.due(s, p, i) {
		t.spurious++
		return p, i, false
	}
	for len(t.got[p]) <= i {
		t.got[p] = append(t.got[p], false)
	}
	if t.got[p][i] {
		t.dup++
		return p, i, false
	}
	t.got[p][i] = true
	if i < t.last[p] {
		t.fifo++
	} else {
		t.last[p] = i
	}
	o.fresh.Add(1)
	o.lastAt.Store(int64(d.At.Sub(o.start)))
	return p, i, true
}

// expect counts the deliveries due when publisher p has sent its first
// published[p] notes.
func (o *oracle) expect(published []int) int {
	total := 0
	for s := range o.ports {
		for p, n := range published {
			for i := 0; i < n; i++ {
				if o.in.due(s, p, i) {
					total++
				}
			}
		}
	}
	return total
}

// finish is called once the consumers have stopped.
func (o *oracle) finish(published []int) oracleTally {
	t := oracleTally{expected: o.expect(published), delivered: int(o.fresh.Load())}
	for s := range o.ports {
		t.dup += o.ports[s].dup
		t.fifo += o.ports[s].fifo
		t.spurious += o.ports[s].spurious
	}
	t.lost = t.expected - t.delivered
	return t
}
