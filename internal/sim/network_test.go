package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/proto"
)

func mkPub(pub message.NodeID, seq uint64) proto.Message {
	n := message.NewNotification(map[string]message.Value{"k": message.Int(int64(seq))})
	n.ID = message.NotificationID{Publisher: pub, Seq: seq}
	return proto.Message{Kind: proto.KPublish, Note: &n}
}

func TestNetworkDeliversWithLatency(t *testing.T) {
	net := NewNetwork()
	start := net.Now()
	var got []time.Time
	net.AddNode("b", EndpointFunc(func(message.NodeID, proto.Message) {
		got = append(got, net.Now())
	}))
	net.Send("a", "b", mkPub("a", 1))
	net.Run()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	if got[0].Sub(start) != DefaultLatency {
		t.Errorf("delivered after %s, want %s", got[0].Sub(start), DefaultLatency)
	}
}

func TestNetworkFIFOPerLinkUnderJitter(t *testing.T) {
	net := NewNetwork()
	// Decreasing latencies would reorder without the FIFO clamp.
	lat := []time.Duration{5 * time.Millisecond, time.Millisecond}
	i := 0
	net.Latency = func(message.NodeID, message.NodeID) time.Duration {
		d := lat[i%len(lat)]
		i++
		return d
	}
	var seqs []uint64
	net.AddNode("b", EndpointFunc(func(_ message.NodeID, m proto.Message) {
		seqs = append(seqs, m.Note.ID.Seq)
	}))
	net.Send("a", "b", mkPub("a", 1))
	net.Send("a", "b", mkPub("a", 2))
	net.Run()
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Errorf("FIFO violated: %v", seqs)
	}
}

func TestNetworkStampsFrom(t *testing.T) {
	net := NewNetwork()
	var from message.NodeID
	net.AddNode("b", EndpointFunc(func(f message.NodeID, m proto.Message) {
		from = m.From
	}))
	net.Send("a", "b", mkPub("a", 1))
	net.Run()
	if from != "a" {
		t.Errorf("From = %s, want a", from)
	}
}

func TestNetworkDropInjection(t *testing.T) {
	net := NewNetwork()
	net.Drop = func(_, _ message.NodeID, m proto.Message) bool {
		return m.Note != nil && m.Note.ID.Seq == 2
	}
	var seqs []uint64
	net.AddNode("b", EndpointFunc(func(_ message.NodeID, m proto.Message) {
		seqs = append(seqs, m.Note.ID.Seq)
	}))
	for s := uint64(1); s <= 3; s++ {
		net.Send("a", "b", mkPub("a", s))
	}
	net.Run()
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Errorf("drop injection wrong: %v", seqs)
	}
	if net.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d", net.Stats().Dropped)
	}
}

func TestNetworkUnknownDestinationIgnored(t *testing.T) {
	net := NewNetwork()
	net.Send("a", "ghost", mkPub("a", 1))
	net.Run() // must not panic
}

func TestNetworkSchedulingOrder(t *testing.T) {
	net := NewNetwork()
	var order []string
	net.After(2*time.Millisecond, func() { order = append(order, "late") })
	net.After(time.Millisecond, func() { order = append(order, "early") })
	net.After(time.Millisecond, func() { order = append(order, "early2") })
	net.Run()
	if len(order) != 3 || order[0] != "early" || order[1] != "early2" || order[2] != "late" {
		t.Errorf("order = %v", order)
	}
}

func TestNetworkRunUntil(t *testing.T) {
	net := NewNetwork()
	fired := 0
	net.After(time.Millisecond, func() { fired++ })
	net.After(time.Hour, func() { fired++ })
	net.RunUntil(net.Now().Add(time.Second))
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (second event beyond horizon)", fired)
	}
	if net.Pending() != 1 {
		t.Errorf("pending = %d, want 1", net.Pending())
	}
	net.Run()
	if fired != 2 {
		t.Errorf("fired = %d after full run", fired)
	}
}

func TestNetworkAtClampsPast(t *testing.T) {
	net := NewNetwork()
	net.RunFor(time.Second)
	ran := false
	net.At(net.Now().Add(-time.Minute), func() { ran = true })
	net.Run()
	if !ran {
		t.Error("past-scheduled event should run immediately")
	}
}

func TestTrafficStatsAccounting(t *testing.T) {
	net := NewNetwork()
	net.AddNode("b", EndpointFunc(func(message.NodeID, proto.Message) {}))
	net.Send("a", "b", mkPub("a", 1))
	net.Send("a", "b", proto.Message{Kind: proto.KRelocReq, Client: "c"})
	net.SendDirect("a", "b", proto.Message{Kind: proto.KReplicaCreate, Client: "c"})
	net.Run()
	s := net.Stats()
	if s.DataMsgs != 1 || s.ControlMsgs != 2 || s.DirectMsgs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByKind[proto.KPublish] != 1 || s.ByKind[proto.KRelocReq] != 1 {
		t.Errorf("ByKind = %v", s.ByKind)
	}
	if s.Bytes <= 0 {
		t.Error("bytes not accounted")
	}
	if s.Total() != 3 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []uint64 {
		net := NewNetwork()
		var seqs []uint64
		net.AddNode("b", EndpointFunc(func(_ message.NodeID, m proto.Message) {
			seqs = append(seqs, m.Note.ID.Seq)
		}))
		net.AddNode("c", EndpointFunc(func(_ message.NodeID, m proto.Message) {
			// relay c -> b
			net.Send("c", "b", m)
		}))
		for s := uint64(1); s <= 20; s++ {
			if s%2 == 0 {
				net.Send("a", "c", mkPub("a", s))
			} else {
				net.Send("a", "b", mkPub("a", s))
			}
		}
		net.Run()
		return seqs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a, b)
		}
	}
}

// heapOracle is the event loop the typed heap replaced, kept as the
// differential test's oracle: container/heap over heap-allocated events
// ordered by (time, seq), background events that do not keep Run alive,
// and cancellation through a shared flag.
type heapOracle struct {
	now       time.Time
	seq       uint64
	queue     oracleQueue
	fgPending int
}

type oracleEvent struct {
	at        time.Time
	seq       uint64
	fn        func()
	bg        bool
	cancelled *bool
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(*oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (o *heapOracle) Now() time.Time { return o.now }
func (o *heapOracle) Pending() int   { return o.fgPending }
func (o *heapOracle) After(d time.Duration, fn func()) {
	o.seq++
	o.fgPending++
	heap.Push(&o.queue, &oracleEvent{at: o.now.Add(d), seq: o.seq, fn: fn})
}
func (o *heapOracle) Background(d time.Duration, fn func()) func() {
	o.seq++
	cancelled := false
	heap.Push(&o.queue, &oracleEvent{at: o.now.Add(d), seq: o.seq, fn: fn, bg: true, cancelled: &cancelled})
	return func() { cancelled = true }
}
func (o *heapOracle) step() {
	e := heap.Pop(&o.queue).(*oracleEvent)
	if !e.bg {
		o.fgPending--
	}
	if e.cancelled != nil && *e.cancelled {
		return
	}
	if e.at.After(o.now) {
		o.now = e.at
	}
	e.fn()
}
func (o *heapOracle) Run() time.Time {
	for o.fgPending > 0 {
		o.step()
	}
	return o.now
}
func (o *heapOracle) RunUntil(t time.Time) {
	for o.queue.Len() > 0 && !o.queue[0].at.After(t) {
		o.step()
	}
	if o.now.Before(t) {
		o.now = t
	}
}

// eventLoop is the scheduling surface the oracle and Network share.
type eventLoop interface {
	Now() time.Time
	Pending() int
	After(d time.Duration, fn func())
	Background(d time.Duration, fn func()) func()
	Run() time.Time
	RunUntil(t time.Time)
}

// driveLoop runs one seeded schedule against a loop and returns what fired,
// when, in order. Delays come from a handful of values so that timestamps
// tie constantly; fired events schedule more events, background timers are
// armed and cancelled — some before they fire, some after, when their slot
// may already serve another timer — and the clock is advanced by both
// RunUntil windows and Run.
func driveLoop(seed int64, l eventLoop) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var cancels []func()
	label := 0
	delay := func() time.Duration { return time.Duration(rng.Intn(4)) * time.Millisecond }
	var arm func(depth int)
	arm = func(depth int) {
		label++
		id := label
		fire := func() {
			log = append(log, fmt.Sprintf("%d@%d", id, l.Now().UnixNano()))
			if depth < 3 && rng.Intn(3) == 0 {
				arm(depth + 1)
			}
		}
		switch rng.Intn(3) {
		case 0, 1:
			l.After(delay(), fire)
		default:
			cancels = append(cancels, l.Background(delay(), fire))
		}
	}
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			arm(0)
		case r < 7 && len(cancels) > 0:
			cancels[rng.Intn(len(cancels))]()
		case r < 9:
			l.RunUntil(l.Now().Add(delay()))
		default:
			l.Run()
		}
		log = append(log, fmt.Sprintf("pending=%d now=%d", l.Pending(), l.Now().UnixNano()))
	}
	l.Run()
	return log
}

func TestEventLoopMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		net := NewNetwork()
		oracle := &heapOracle{now: net.Now()}
		got, want := driveLoop(seed, net), driveLoop(seed, oracle)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q, oracle %q", seed, i, got[i], want[i])
			}
		}
	}
}

// sendDeliverProbe returns one message carried from Send through the event
// loop to its endpoint, and the count of deliveries made.
func sendDeliverProbe() (func(), *int) {
	net := NewNetwork()
	got := new(int)
	net.AddNode("b", EndpointFunc(func(message.NodeID, proto.Message) { *got++ }))
	m := mkPub("a", 1)
	return func() {
		net.Send("a", "b", m)
		net.step()
	}, got
}

// TestNetworkSendDeliverAllocs: once its slices have grown, the event loop
// carries a message from Send to Receive without allocating
// (BenchmarkNetworkSendDeliver).
func TestNetworkSendDeliverAllocs(t *testing.T) {
	sendDeliver, got := sendDeliverProbe()
	if allocs := testing.AllocsPerRun(100, sendDeliver); allocs != 0 {
		t.Errorf("Send → step → Receive allocates %.1f times, want 0", allocs)
	}
	if *got == 0 {
		t.Error("nothing was delivered")
	}
}

func BenchmarkNetworkSendDeliver(b *testing.B) {
	sendDeliver, got := sendDeliverProbe()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sendDeliver()
	}
	if *got != b.N {
		b.Fatalf("delivered %d of %d", *got, b.N)
	}
}
