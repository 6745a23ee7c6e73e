package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/client"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/routing"
)

// Scenario describes one experiment run: a movement graph with per-broker
// regions and menu publishers, a set of roaming subscribers following
// seeded movement models, and the middleware deployment under test.
type Scenario struct {
	// Name labels result rows.
	Name string
	// Graph is the movement graph; the overlay is its spanning tree.
	Graph *movement.Graph
	// Strategy selects the routing algorithm (default simple).
	Strategy routing.Strategy
	// Replication selects the logical-mobility deployment.
	Replication ReplicationMode
	// Mobility selects the physical-mobility deployment (default
	// transparent).
	Mobility MobilityMode
	// Shared switches replicators to shared per-broker buffers.
	Shared bool
	// BufferTTL / BufferCap bound virtual-client buffers (0 = unbounded).
	BufferTTL time.Duration
	BufferCap int
	// PublishInterval is each broker publisher's period (default 5ms).
	PublishInterval time.Duration
	// Duration is the simulated experiment length (default 1s).
	Duration time.Duration
	// NumMobiles is the number of roaming subscribers (default 1).
	NumMobiles int
	// Model generates movement traces (default random walk).
	Model movement.Model
	// Dwell configures dwell/gap times (default 50ms ± 10ms, 5ms gap).
	Dwell movement.DwellSpec
	// Seed makes the run deterministic.
	Seed int64
	// LinkLatency is the per-hop delay (default 1ms).
	LinkLatency time.Duration
	// StaticStream additionally runs a location-free "stock" stream from
	// the first broker, with every mobile statically subscribed — the
	// physical-mobility workload of E1.
	StaticStream bool
	// LocationStream controls the location-dependent "menu" stream and
	// subscriptions (default true unless StaticOnly).
	StaticOnly bool
	// PreArrivalWindow is the oracle's look-back window W for pre-arrival
	// coverage (default = Dwell.Dwell).
	PreArrivalWindow time.Duration
}

func (s *Scenario) defaults() {
	if s.Strategy == routing.StrategyInvalid {
		s.Strategy = routing.StrategySimple
	}
	if s.Mobility == MobilityNone {
		s.Mobility = MobilityTransparent
	}
	if s.PublishInterval == 0 {
		s.PublishInterval = 5 * time.Millisecond
	}
	if s.Duration == 0 {
		s.Duration = time.Second
	}
	if s.NumMobiles == 0 {
		s.NumMobiles = 1
	}
	if s.Dwell == (movement.DwellSpec{}) {
		s.Dwell = movement.DwellSpec{
			Dwell:  50 * time.Millisecond,
			Jitter: 10 * time.Millisecond,
			Gap:    5 * time.Millisecond,
		}
	}
	if s.Model == nil {
		s.Model = movement.RandomWalk{Graph: s.Graph, Spec: s.Dwell}
	}
	if s.LinkLatency == 0 {
		s.LinkLatency = time.Millisecond
	}
	if s.PreArrivalWindow == 0 {
		s.PreArrivalWindow = s.Dwell.Dwell
	}
}

// pubRecord logs one published notification for the oracle. Each stream's
// records are appended at publish time, so they are in time order.
type pubRecord struct {
	id message.NotificationID
	at time.Time
}

// window returns the records published strictly between from and to.
func window(recs []pubRecord, from, to time.Time) []pubRecord {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].at.After(from) })
	hi := sort.Search(len(recs), func(i int) bool { return !recs[i].at.Before(to) })
	if hi < lo {
		return nil
	}
	return recs[lo:hi]
}

// stay logs one dwell interval of a mobile.
type stay struct {
	broker   message.NodeID
	from, to time.Time
}

// Outcome aggregates a run's metrics.
type Outcome struct {
	Name string

	// Location-stream coverage (the E5 headline metrics).
	PreArrivalExpected int
	PreArrivalGot      int
	LiveExpected       int
	LiveGot            int

	// FirstDeliveryLatency averages, per handover, the delay between
	// arrival and the first location-relevant delivery ("setup time").
	FirstDeliveryLatency time.Duration
	FirstDeliverySamples int

	// Static-stream integrity (the E1 metrics).
	StaticExpected int
	StaticGot      int

	Duplicates     int
	FIFOViolations int
	Handovers      int

	// Traffic accounting.
	ControlMsgs int
	DataMsgs    int
	DirectMsgs  int
	TotalBytes  int

	// Replicator economy (E6/E9).
	Buffered             int
	Replayed             int
	Wasted               int
	PeakResidentVC       int
	TableEntries         int
	BufferedBytes        int
	ExceptionActivations int
	FetchesServed        int
}

// PreArrivalCoverage returns the fraction of pre-arrival-relevant
// notifications actually delivered.
func (o Outcome) PreArrivalCoverage() float64 { return ratio(o.PreArrivalGot, o.PreArrivalExpected) }

// LiveCoverage returns the fraction of live-relevant notifications
// delivered.
func (o Outcome) LiveCoverage() float64 { return ratio(o.LiveGot, o.LiveExpected) }

// StaticLoss returns the number of lost static-stream notifications.
func (o Outcome) StaticLoss() int { return o.StaticExpected - o.StaticGot }

// Unconsumed returns the number of notifications buffered by virtual
// clients that were never replayed to a client — pre-subscription traffic
// spent on uncertainty that did not materialize (the bandwidth/memory cost
// §4 warns about). It covers both garbage-collected and still-resident
// buffers.
func (o Outcome) Unconsumed() int {
	u := o.Buffered - o.Replayed
	if u < 0 {
		return 0
	}
	return u
}

func ratio(got, want int) float64 {
	if want == 0 {
		return 1
	}
	return float64(got) / float64(want)
}

// Run executes the scenario and computes its outcome.
func (s Scenario) Run() (Outcome, error) {
	s.defaults()
	rng := rand.New(rand.NewSource(s.Seed))

	brokers := s.Graph.Nodes()
	locs := location.Regions(brokers)

	// The replicator economy is read off the session layers' mechanism
	// events, as /metrics exports them.
	tally := &broker.MechanismTally{}
	cl, err := NewCluster(ClusterConfig{
		Movement:      s.Graph,
		Strategy:      s.Strategy,
		Locations:     locs,
		Mobility:      s.Mobility,
		Replication:   s.Replication,
		BufferFactory: func() buffer.Policy { return buffer.NewWindow(s.BufferTTL, s.BufferCap) },
		SharedBuffers: s.Shared,
		LinkLatency:   s.LinkLatency,
		Middleware:    []broker.Middleware{tally},
	})
	if err != nil {
		return Outcome{}, err
	}
	net := cl.Net
	start := net.Now()

	// --- publishers: one per broker, staggered, location-stamped menus.
	menus := make(map[location.Location][]pubRecord) // by region
	var stocks []pubRecord
	if !s.StaticOnly {
		for i, b := range brokers {
			b := b
			p := cl.AddClient(message.NodeID(fmt.Sprintf("pub@%s", b)))
			p.ConnectTo(b)
			offset := time.Duration(i) * s.PublishInterval / time.Duration(len(brokers))
			region := location.Location("region-" + b)
			var tickFn func()
			seq := 0
			tickFn = func() {
				seq++
				n := message.NewNotification(map[string]message.Value{
					"service": message.String("menu"),
					"item":    message.Int(int64(seq)),
				})
				n = location.Stamp(n, region)
				if id, err := p.Publish(n.Attrs); err == nil {
					menus[region] = append(menus[region], pubRecord{id: id, at: net.Now()})
				}
				if net.Now().Sub(start) < s.Duration {
					net.After(s.PublishInterval, tickFn)
				}
			}
			net.After(offset+s.PublishInterval, tickFn)
		}
	}
	if s.StaticStream {
		p := cl.AddClient("stockpub")
		p.ConnectTo(brokers[0])
		var tickFn func()
		seq := 0
		tickFn = func() {
			seq++
			if id, err := p.Publish(map[string]message.Value{
				"service": message.String("stock"),
				"quote":   message.Int(int64(seq)),
			}); err == nil {
				stocks = append(stocks, pubRecord{id: id, at: net.Now()})
			}
			if net.Now().Sub(start) < s.Duration {
				net.After(s.PublishInterval, tickFn)
			}
		}
		net.After(s.PublishInterval, tickFn)
	}

	// --- mobiles: seeded traces, scheduled connects/disconnects.
	type mobileRun struct {
		c     *client.Client
		stays []stay
		setup time.Time
	}
	mobiles := make([]*mobileRun, s.NumMobiles)
	for i := range mobiles {
		mc := cl.AddClient(message.NodeID(fmt.Sprintf("mob%d", i)))
		origin := brokers[rng.Intn(len(brokers))]
		trace := s.Model.Generate(origin, int(s.Duration/(s.Dwell.Dwell+s.Dwell.Gap))+2, rng)
		mr := &mobileRun{c: mc}
		mobiles[i] = mr

		mc.ConnectTo(trace.Steps[0].Broker)
		if !s.StaticOnly {
			mc.SubscribeAt(filter.Eq("service", message.String("menu")))
		}
		if s.StaticStream {
			mc.Subscribe(filter.New(filter.Eq("service", message.String("stock"))))
		}

		at := time.Duration(0)
		for step := 0; step < len(trace.Steps); step++ {
			st := trace.Steps[step]
			from := at
			at += st.Dwell
			leave := at
			at += st.Gap
			arriveNext := at
			broker := st.Broker
			fromAbs := start.Add(from)
			leaveAbs := start.Add(leave)
			mr.stays = append(mr.stays, stay{broker: broker, from: fromAbs, to: leaveAbs})
			if step == len(trace.Steps)-1 || leave > s.Duration {
				mr.stays[len(mr.stays)-1].to = start.Add(s.Duration + s.Dwell.Dwell)
				break
			}
			next := trace.Steps[step+1].Broker
			net.At(leaveAbs, func() { mr.c.Disconnect() })
			net.At(start.Add(arriveNext), func() { mr.c.ConnectTo(next) })
		}
	}

	// Let initial subscriptions settle, run the schedule, then drain.
	peakVC := 0
	sampler := func() {}
	sampler = func() {
		if v := cl.TotalResidentVCs(); v > peakVC {
			peakVC = v
		}
		if net.Now().Sub(start) < s.Duration {
			net.After(10*time.Millisecond, sampler)
		}
	}
	net.After(10*time.Millisecond, sampler)
	net.Run()

	// --- oracle ---------------------------------------------------------
	out := Outcome{Name: s.Name}
	diameter := time.Duration(len(brokers)) * s.LinkLatency
	eps := diameter + 3*s.LinkLatency

	scopeOf := func(b message.NodeID) location.Location {
		return location.Location("region-" + b)
	}

	for _, mr := range mobiles {
		received := mr.c.Received()
		got := make(map[message.NotificationID]bool, len(received))
		for _, d := range received {
			got[d.Note.ID] = true
		}
		tally := func(pr pubRecord, expected, delivered *int) {
			*expected++
			if got[pr.id] {
				*delivered++
			}
		}
		out.Duplicates += mr.c.Duplicates()
		out.FIFOViolations += mr.c.FIFOViolations()
		out.Handovers += len(mr.stays) - 1

		// Location-stream coverage per stay.
		if !s.StaticOnly {
			// Arrival times of location-stamped deliveries per location,
			// in arrival order — which is time order.
			arrivals := make(map[location.Location][]time.Time)
			for _, d := range received {
				if v, ok := d.Note.Get(filter.AttrLocation); ok {
					loc := location.Location(v.Str())
					arrivals[loc] = append(arrivals[loc], d.At)
				}
			}
			for si, st := range mr.stays {
				if si == 0 {
					continue // initial stay has no handover to measure
				}
				region := scopeOf(st.broker)
				liveFrom, liveTo := st.from.Add(eps), st.to.Add(-eps)
				for _, pr := range window(menus[region], liveFrom, liveTo) {
					tally(pr, &out.LiveExpected, &out.LiveGot)
				}
				for _, pr := range window(menus[region], st.from.Add(-s.PreArrivalWindow), st.from) {
					if pr.at.After(liveFrom) && pr.at.Before(liveTo) {
						continue // live takes precedence: already counted
					}
					tally(pr, &out.PreArrivalExpected, &out.PreArrivalGot)
				}
				// The first delivery from this region at or after arrival.
				ts := arrivals[region]
				if i := sort.Search(len(ts), func(i int) bool { return !ts[i].Before(st.from) }); i < len(ts) && ts[i].After(st.from) {
					out.FirstDeliveryLatency += ts[i].Sub(st.from)
					out.FirstDeliverySamples++
				}
			}
		}

		// Static-stream integrity.
		if s.StaticStream {
			end := mr.stays[len(mr.stays)-1].to
			for _, pr := range window(stocks, start.Add(eps), end.Add(-eps)) {
				tally(pr, &out.StaticExpected, &out.StaticGot)
			}
		}
	}
	if out.FirstDeliverySamples > 0 {
		out.FirstDeliveryLatency /= time.Duration(out.FirstDeliverySamples)
	}

	ns := net.Stats()
	out.ControlMsgs = ns.ControlMsgs
	out.DataMsgs = ns.DataMsgs
	out.DirectMsgs = ns.DirectMsgs
	out.TotalBytes = ns.Bytes
	out.Buffered = tally.Total(broker.CoreBuffered)
	out.Replayed = tally.Total(broker.CoreReplayed)
	out.Wasted = tally.Total(broker.CoreWasted)
	out.ExceptionActivations = tally.Total(broker.CoreExceptionActivations)
	out.FetchesServed = tally.Total(broker.CoreFetchesServed)
	out.PeakResidentVC = peakVC
	out.TableEntries = cl.TotalTableEntries()
	for _, r := range cl.Replicators {
		out.BufferedBytes += r.BufferedBytes()
	}
	return out, nil
}
