package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rebeca"
	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/client"
	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/routing"
	"rebeca/internal/store"
	"rebeca/internal/wire"
)

// layerNotes is how many of the workload's first notes the layer timings
// and the traced pass replay.
const layerNotes = 10000

// perLayer is every per-layer metric with its unit, in print order; a
// traced run reports all of them on every workload (0 where the workload
// never enters the layer: sim.* and core.* on the live workloads,
// overlay.* counters and loadgen.* on the simulated one).
var perLayer = []metricDef{
	{"codec.encode_ns", "ns"}, {"codec.decode_ns", "ns"}, {"codec.decode_allocs", "count"}, {"codec.frame_bytes", "B"},
	{"wire.send_ns", "ns"}, {"wire.loop_rtt_us", "us"}, {"wire.connect_us", "us"},
	{"broker.handle_publish_ns", "ns"}, {"broker.handle_publish_allocs", "count"},
	{"broker.handle_publish_mesh_ns", "ns"}, {"broker.handle_publish_mesh_allocs", "count"},
	{"broker.middleware4_ns", "ns"}, {"broker.handle_subscribe_ns", "ns"},
	{"routing.match_ns", "ns"}, {"routing.add_remove_ns", "ns"}, {"routing.table_entries", "count"},
	{"filter.index_match_ns", "ns"}, {"filter.index_add_ns", "ns"}, {"filter.match_ratio", "ratio"},
	{"client.tally_record_ns_lt64k", "ns"}, {"client.tally_record_ns_gt64k", "ns"},
	{"overlay.send_ns", "ns"}, {"overlay.pending_peak", "count"}, {"overlay.dropped", "count"},
	{"buffer.add_ns", "ns"}, {"buffer.snapshot_ns", "ns"}, {"buffer.durable_add_ns", "ns"},
	{"store.wal_append_ns", "ns"}, {"store.wal_replay_ns_per_rec", "ns"}, {"store.wal_ack_ns", "ns"}, {"store.wal_bytes_per_rec", "B"},
	{"mobility.handover_cpu_us", "us"}, {"mobility.ctrl_msgs_per_handover", "count"}, {"mobility.replayed_per_handover", "count"},
	{"mobility.lost", "count"}, {"mobility.dup", "count"}, {"mobility.fifo", "count"},
	{"core.replicas_peak", "count"}, {"core.buffered", "count"}, {"core.replayed", "count"}, {"core.wasted", "count"},
	{"core.replay_hit_ratio", "ratio"}, {"core.first_delivery_ms", "ms"}, {"core.pre_arrival_coverage", "ratio"},
	{"sim.msgs_total", "count"}, {"sim.handovers", "count"}, {"sim.ctrl_msgs", "count"}, {"sim.data_msgs", "count"},
	{"sim.direct_msgs", "count"}, {"sim.msgs_per_s", "1/s"},
	{"proc.allocs_per_note", "count"}, {"proc.gc_pause_ms", "ms"}, {"proc.rss_peak_mb", "MB"},
	{"loadgen.late_p50_us", "us"}, {"loadgen.late_p99_us", "us"}, {"loadgen.achieved_rate", "1/s"},
	{"loadgen.latency_p90_us", "us"}, {"loadgen.latency_p99_us", "us"}, {"loadgen.latency_p999_us", "us"},
	{"loadgen.handover_p50_ms", "ms"}, {"loadgen.handover_p90_ms", "ms"},
	{"trace.accounted_ns", "ns"}, {"trace.unaccounted_ns", "ns"}, {"trace.overhead_pct", "%"},
}

// timed runs op(0), …, op(n-1) in nine batches and returns the median
// batch's time per call and the allocations per call over all of them.
func timed(n int, op func(i int)) (nsPerOp, allocsPerOp float64) {
	const batches = 9
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	times := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		lo, hi := b*n/batches, (b+1)*n/batches
		if hi == lo {
			continue
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			op(i)
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(hi-lo))
	}
	runtime.ReadMemStats(&after)
	return median(times), float64(after.Mallocs-before.Mallocs) / float64(max(n, 1))
}

// layerInputs is the workload's inputs in the shapes the layers take.
type layerInputs struct {
	notes []message.Notification // the first layerNotes notes, publishers interleaved
	msgs  []proto.Message        // each as the KPublish a broker receives
	subs  []proto.Subscription   // every filter of every port
	links []message.NodeID       // the link subs[i] is learned on: one per port, "L<port>"
	peers []message.NodeID       // those links, once each
}

func newLayerInputs(in *inputs) *layerInputs {
	li := &layerInputs{notes: make([]message.Notification, layerNotes), msgs: make([]proto.Message, layerNotes)}
	pubs := len(in.pool)
	for i := range li.notes {
		li.notes[i] = in.note(i%pubs, i/pubs)
		li.msgs[i] = proto.Message{Kind: proto.KPublish, Client: li.notes[i].ID.Publisher, Note: &li.notes[i]}
	}
	for s, fs := range in.ports {
		link := message.NodeID(fmt.Sprintf("L%d", s))
		li.peers = append(li.peers, link)
		for i, f := range fs {
			li.subs = append(li.subs, proto.Subscription{ID: message.SubID(fmt.Sprintf("%s/s%d", subID(s), i+1)), Filter: f})
			li.links = append(li.links, link)
		}
	}
	return li
}

// addLayers fills every per-layer metric the run itself did not: each
// module's exported functions timed on the workload's inputs, then the
// traced pass and its cost budget against the untraced run's cpuNsPerNote.
func (r *report) addLayers(in *inputs, cpuNsPerNote float64, outDir string) error {
	li := newLayerInputs(in)
	scratch, err := os.MkdirTemp(outDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	r.layersCodec(li)
	if err := r.layersWire(li); err != nil {
		return fmt.Errorf("wire layer: %w", err)
	}
	r.layersBroker(li)
	r.layersRoutingFilter(li)
	r.layersClient()
	r.layersOverlay(li)
	if err := r.layersBufferStore(li, scratch); err != nil {
		return fmt.Errorf("store layer: %w", err)
	}
	if err := r.layersMobility(in); err != nil {
		return fmt.Errorf("mobility layer: %w", err)
	}
	if err := r.tracedPass(in, cpuNsPerNote, outDir); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	for _, d := range perLayer {
		if _, ok := r.PerLayer[d.name]; !ok {
			r.layer(d.name, 0) // the workload never enters this layer
		}
	}
	return nil
}

func (r *report) layersCodec(li *layerInputs) {
	var buf []byte
	enc, _ := timed(len(li.msgs), func(i int) { buf = codec.AppendMessage(buf[:0], &li.msgs[i]) })
	frames := make([][]byte, len(li.msgs))
	total := 0
	for i := range li.msgs {
		frames[i] = codec.AppendMessage(nil, &li.msgs[i])
		total += len(frames[i])
	}
	bad := 0
	dec, allocs := timed(len(frames), func(i int) {
		if _, err := codec.DecodeMessage(frames[i]); err != nil {
			bad++
		}
	})
	if bad > 0 {
		r.fail("codec could not decode %d of its own frames", bad)
	}
	r.layer("codec.encode_ns", enc)
	r.layer("codec.decode_ns", dec)
	r.layer("codec.decode_allocs", allocs)
	r.layer("codec.frame_bytes", float64(total)/float64(len(frames)))
}

// sinkNode starts a broker node nobody subscribes at: whatever is sent to
// it is read, decoded, routed to nobody and dropped.
func sinkNode() (*wire.Node, error) {
	n := wire.NewNode(wire.NodeConfig{ID: "sink", Listen: "127.0.0.1:0"})
	if err := n.Start(); err != nil {
		return nil, err
	}
	return n, nil
}

func (r *report) layersWire(li *layerInputs) error {
	if err := r.wireSend(li); err != nil {
		return err
	}
	node, err := sinkNode() // a fresh node: nothing of the send rounds is left in its sockets
	if err != nil {
		return err
	}
	defer node.Close()

	// loop_rtt_us: one note in flight, publisher → node → subscriber, all
	// on this node: what a lone frame pays (writer-idle flush included).
	arrived := make(chan uint64, 1)
	sub := wire.NewRemoteClient("rtt-sub", func(n message.Notification, _ []message.SubID) {
		select {
		case arrived <- n.ID.Seq:
		default: // never hold the delivery pump: Disconnect waits for it
		}
	})
	if err := sub.Connect(node.Addr(), "", nil, 1); err != nil {
		return err
	}
	defer sub.Disconnect()
	all := proto.Subscription{ID: "rtt-sub/s1", Filter: filter.All()}
	if err := sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "rtt-sub", Sub: &all}); err != nil {
		return err
	}
	pub := wire.NewRemoteClient("rtt-pub", nil)
	if err := pub.Connect(node.Addr(), "", nil, 1); err != nil {
		return err
	}
	defer pub.Disconnect()
	node.Drain(10 * time.Second) // the subscription is in before the first note
	const rttSamples = 2000
	rtts := make([]float64, 0, rttSamples)
	for i := 0; i < rttSamples; i++ {
		n := li.notes[i%len(li.notes)]
		n.ID = message.NotificationID{Publisher: "rtt-pub", Seq: uint64(i + 1)}
		t0 := time.Now()
		if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "rtt-pub", Note: &n}); err != nil {
			return err
		}
		select {
		case seq := <-arrived:
			if seq != n.ID.Seq {
				return fmt.Errorf("loop: sent note %d, got note %d back", n.ID.Seq, seq)
			}
			rtts = append(rtts, usBetween(t0, time.Now()))
		case <-time.After(5 * time.Second):
			return fmt.Errorf("loop: note %d never came back", i)
		}
	}
	p50, _ := r.timing("wire loop rtt", "us", rtts)
	r.layer("wire.loop_rtt_us", p50)

	// connect_us: dial + handshake + KConnect, the fixed part of a handover.
	const connects = 200
	cs := make([]float64, 0, connects)
	c := wire.NewRemoteClient("conn-probe", nil)
	for i := 0; i < connects; i++ {
		t0 := time.Now()
		if err := c.Connect(node.Addr(), "", nil, uint64(i+1)); err != nil {
			return err
		}
		cs = append(cs, usBetween(t0, time.Now()))
		_ = c.Disconnect()
	}
	p50, _ = r.timing("wire connect", "us", cs)
	r.layer("wire.connect_us", p50)
	return nil
}

// wireSend measures what a sender pays per message when the writer
// coalesces: rounds of back-to-back sends into a sink, each ended by the
// sink draining.
func (r *report) wireSend(li *layerInputs) error {
	node, err := sinkNode()
	if err != nil {
		return err
	}
	defer node.Close()
	conn, err := wire.DialLink("bench-src", node.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	const sendRounds, perRound = 5, 5 * layerNotes
	rounds := make([]float64, 0, sendRounds)
	for k := 0; k < sendRounds; k++ {
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			if err := conn.Send(li.msgs[i%len(li.msgs)]); err != nil {
				return err
			}
		}
		if !node.Drain(10 * time.Second) {
			return fmt.Errorf("sink did not drain")
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/perRound)
	}
	r.layer("wire.send_ns", median(rounds))
	return nil
}

// benchBroker is a broker on its own: peers "P" (where publishes come
// from) and one link per subscriber port, the workload's subscriptions
// learned on those links, and a Send that goes nowhere.
func benchBroker(li *layerInputs, mesh bool, stages int) *broker.Broker {
	peers := append([]message.NodeID{"P"}, li.peers...)
	hops := map[message.NodeID]message.NodeID{}
	for _, p := range peers {
		hops[p] = p
	}
	b := broker.New(broker.Config{
		ID: "X", Peers: peers, NextHop: hops, Now: time.Now,
		Send: func(message.NodeID, proto.Message) {},
	})
	if mesh {
		// A star round X: every link is a tree link, so the mesh path
		// forwards exactly what the tree path does, plus its bookkeeping.
		edges := make([][2]message.NodeID, len(peers))
		for i, p := range peers {
			edges[i] = [2]message.NodeID{"X", p}
		}
		b.EnableMesh()
		b.SetMeshTopology(append([]message.NodeID{"X"}, peers...), edges)
	}
	for i := 0; i < stages; i++ {
		b.UseMiddleware(broker.PassMiddleware{})
	}
	for i := range li.subs {
		b.HandleMessage(li.links[i], proto.Message{Kind: proto.KSubscribe, Sub: &li.subs[i]})
	}
	return b
}

func (r *report) layersBroker(li *layerInputs) {
	// Every call carries a fresh sequence number: the mesh path forgets
	// nothing it has seen, and a replayed ID would take its short cut.
	seq := uint64(1 << 32)
	publish := func(b *broker.Broker) func(int) {
		return func(i int) {
			seq++
			m := li.msgs[i%len(li.msgs)]
			n := *m.Note
			n.ID.Seq = seq
			m.Note = &n
			b.HandleMessage("P", m)
		}
	}
	n := len(li.msgs)
	plain, plainAllocs := timed(n, publish(benchBroker(li, false, 0)))
	mesh, meshAllocs := timed(n, publish(benchBroker(li, true, 0)))
	staged, _ := timed(n, publish(benchBroker(li, false, 4)))
	r.layer("broker.handle_publish_ns", plain)
	r.layer("broker.handle_publish_allocs", plainAllocs)
	r.layer("broker.handle_publish_mesh_ns", mesh)
	r.layer("broker.handle_publish_mesh_allocs", meshAllocs)
	r.layer("broker.middleware4_ns", max(staged-plain, 0))

	b := benchBroker(li, false, 0)
	extra := proto.Subscription{ID: "extra/s1", Filter: li.subs[0].Filter}
	pair, _ := timed(n, func(int) {
		b.HandleMessage("L0", proto.Message{Kind: proto.KSubscribe, Sub: &extra})
		b.HandleMessage("L0", proto.Message{Kind: proto.KUnsubscribe, Sub: &extra})
	})
	r.layer("broker.handle_subscribe_ns", pair)
}

func (r *report) layersRoutingFilter(li *layerInputs) {
	tbl := routing.NewIndexedTable()
	for i := range li.subs {
		tbl.Add(li.subs[i], li.links[i])
	}
	noSubs := func(message.NodeID) bool { return false }
	n := len(li.notes)
	match, _ := timed(n, func(i int) { tbl.MatchByLink(li.notes[i], "P", noSubs) })
	extra := proto.Subscription{ID: "extra/s1", Filter: li.subs[0].Filter}
	addRemove, _ := timed(n, func(int) {
		tbl.Add(extra, "L0")
		tbl.Remove(extra.ID)
	})
	r.layer("routing.match_ns", match)
	r.layer("routing.add_remove_ns", addRemove)
	r.layer("routing.table_entries", float64(tbl.Len()))

	// index_add_ns: build the workload's index from empty, as often as it
	// takes to time layerNotes adds.
	var ix *filter.Index
	add, _ := timed(layerNotes, func(i int) {
		j := i % len(li.subs)
		if j == 0 {
			ix = filter.NewIndex()
		}
		ix.Add(string(li.subs[j].ID), li.subs[j].Filter)
	})
	ix = filter.NewIndex()
	for _, s := range li.subs {
		ix.Add(string(s.ID), s.Filter)
	}
	hits := 0
	imatch, _ := timed(n, func(i int) { ix.Match(li.notes[i], func(string) { hits++ }) })
	r.layer("filter.index_add_ns", add)
	r.layer("filter.index_match_ns", imatch)
	// Matched subscriptions per note over the table size. Entries visited
	// would be the better denominator; the index does not expose it.
	r.layer("filter.match_ratio", float64(hits)/float64(n)/float64(len(li.subs)))
}

// layersClient times the port's delivery accounting on one publisher's
// stream, below and beyond the dedup window.
func (r *report) layersClient() {
	t := client.NewTally()
	at := time.Now()
	rec := func(base int) func(int) {
		return func(i int) {
			t.Record(client.Delivery{At: at, Note: message.Notification{
				ID: message.NotificationID{Publisher: "pub0", Seq: uint64(base + i + 1)},
			}})
		}
	}
	below, _ := timed(client.DefaultDedupWindow, rec(0))
	// Past the window a Record can cost a scan of the whole window: few
	// enough calls to stay within a second or two on the parent code.
	beyond, _ := timed(1800, rec(client.DefaultDedupWindow))
	r.layer("client.tally_record_ns_lt64k", below)
	r.layer("client.tally_record_ns_gt64k", beyond)
}

// layersOverlay times Manager.Send on an established link whose transmit
// goes nowhere: the supervision's own cost per message.
func (r *report) layersOverlay(li *layerInputs) {
	m := overlay.New(overlay.Config{
		Self:     "X",
		Transmit: func(message.NodeID, proto.Message) error { return nil },
		// Timers never fire: no heartbeats inside the timed loop.
		Schedule: func(time.Duration, func()) func() { return func() {} },
	})
	defer m.Close()
	m.AddPeer("Y", false)
	gen, _ := m.LinkUp("Y")
	m.HandleControl("Y", gen, proto.Message{Kind: proto.KSyncInstall, Origin: "Y", Epoch: gen})
	if m.State("Y") != overlay.StateEstablished {
		r.fail("overlay link did not establish (state %v)", m.State("Y"))
		return
	}
	send, _ := timed(len(li.msgs), func(i int) { m.Send("Y", li.msgs[i]) })
	r.layer("overlay.send_ns", send)
}

// handoverBacklog is what a ghost session holds when the roaming
// subscriber returns: roamAway at roamRate.
const handoverBacklog = int(roamRate * roamAway / time.Second)

func (r *report) layersBufferStore(li *layerInputs, dir string) error {
	at := time.Now()
	n := len(li.notes)
	u := buffer.NewUnbounded()
	add, _ := timed(n, func(i int) { u.Add(li.notes[i], at) })
	backlog := buffer.NewUnbounded()
	for i := 0; i < handoverBacklog; i++ {
		backlog.Add(li.notes[i], at)
	}
	snap, _ := timed(2000, func(int) { backlog.Snapshot(at) })
	r.layer("buffer.add_ns", add)
	r.layer("buffer.snapshot_ns", snap)

	wal, err := store.OpenWAL(filepath.Join(dir, "wal"), store.WALNoSync())
	if err != nil {
		return err
	}
	defer wal.Close()
	var appendErr error
	appended := n
	appendNs, _ := timed(n, func(i int) {
		if _, err := wal.Append("q", li.notes[i], at); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	stats, err := wal.Stats()
	if err != nil {
		return err
	}
	replays := make([]float64, 0, 5)
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		recs, err := wal.ReplayFrom("q", 0)
		if err != nil {
			return err
		}
		if len(recs) != appended {
			return fmt.Errorf("WAL replayed %d of %d records", len(recs), appended)
		}
		replays = append(replays, float64(time.Since(t0).Nanoseconds())/float64(len(recs)))
	}
	// Ack in handover-sized steps, the way a relocation confirms a replay.
	var ackErr error
	ack, _ := timed(appended/handoverBacklog, func(i int) {
		if err := wal.Ack("q", uint64((i+1)*handoverBacklog)); err != nil {
			ackErr = err
		}
	})
	if ackErr != nil {
		return ackErr
	}
	r.layer("store.wal_append_ns", appendNs)
	r.layer("store.wal_bytes_per_rec", float64(stats.Bytes)/float64(appended))
	r.layer("store.wal_replay_ns_per_rec", median(replays))
	r.layer("store.wal_ack_ns", ack)

	d := buffer.NewDurable(wal, "dq", nil)
	durable, _ := timed(n, func(i int) { d.Add(li.notes[i], at) })
	if err := d.Err(); err != nil {
		return err
	}
	r.layer("buffer.durable_add_ns", durable)

	// With fsync on, for information only: it times this sandbox's disk.
	synced, err := store.OpenWAL(filepath.Join(dir, "wal-sync"))
	if err != nil {
		return err
	}
	defer synced.Close()
	syncNs, _ := timed(45, func(i int) {
		if _, err := synced.Append("q", li.notes[i], at); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	r.note("store.wal_append_sync_ns (information only: this sandbox's disk): %.0f ns", syncNs)
	return nil
}

// layersMobility measures one relocation at a time on the virtual-clock
// system: a subscriber holding the workload's first port's profile leaves
// B0, handoverBacklog notes are published meanwhile, and it reconnects at
// the neighbour. Counts are exact; the time is CPU on one goroutine.
func (r *report) layersMobility(in *inputs) error {
	sys, err := rebeca.New(rebeca.WithMovement(rebeca.Line(3)))
	if err != nil {
		return err
	}
	defer sys.Close()
	sub := sys.NewClient("mob")
	if err := sub.Connect("B0"); err != nil {
		return err
	}
	got := 0
	sub.OnNotify(func(rebeca.Notification) { got++ })
	for _, f := range in.ports[0] {
		sub.Subscribe(f, rebeca.WithStreamBuffer(1), rebeca.WithOverflow(rebeca.DropNewest))
	}
	pub := sys.NewClient("pub0")
	if err := pub.Connect("B2"); err != nil {
		return err
	}
	sys.Settle()
	const handovers = 40
	var cpuUs, msgs, replayed []float64
	next := 0
	for h := 0; h < handovers; h++ {
		_ = sub.Disconnect()
		sys.Settle()
		batch := make([]map[string]rebeca.Value, handoverBacklog)
		for i := range batch {
			attrs := in.attrs(0, next)
			next++
			batch[i] = make(map[string]rebeca.Value, len(attrs))
			for k, v := range attrs {
				batch[i][k] = v
			}
		}
		if _, err := pub.PublishBatch(context.Background(), batch); err != nil {
			return err
		}
		sys.Settle()
		before, gotBefore := sys.MessagesCarried(), got
		t0 := time.Now()
		if err := sub.Connect(roamCycle[(h+1)%len(roamCycle)]); err != nil {
			return err
		}
		sys.Settle()
		cpuUs = append(cpuUs, usBetween(t0, time.Now()))
		msgs = append(msgs, float64(sys.MessagesCarried()-before))
		replayed = append(replayed, float64(got-gotBefore))
	}
	p50, _ := r.timing("virtual-clock handover", "us", cpuUs)
	r.layer("mobility.handover_cpu_us", p50)
	r.layer("mobility.ctrl_msgs_per_handover", median(msgs))
	r.layer("mobility.replayed_per_handover", median(replayed))
	return nil
}

// tracedPass routes the workload's first layerNotes notes down the
// rebuilt path twice — spans off, then spans on — writes the trace and
// prints the cost budget: each layer's self time per delivered note, their
// sum, and what the untraced run's CPU per delivered note leaves
// unaccounted for.
func (r *report) tracedPass(in *inputs, cpuNsPerNote float64, outDir string) error {
	var conn *wire.Conn
	if in.workload != wlSim { // the simulator's links are function calls
		node, err := sinkNode()
		if err != nil {
			return err
		}
		defer node.Close()
		if conn, err = wire.DialLink("tracer", node.Addr()); err != nil {
			return err
		}
		defer conn.Close()
	}
	pass := func(n int, rec *recorder) (float64, error) {
		p := newPath(in)
		p.conn = conn
		got, ns := p.route(in, n, rec)
		if want := expectedTallies(in, n); got != want {
			return 0, fmt.Errorf("the rebuilt path delivered %d of the %d deliveries the reference matcher expects", got, want)
		}
		return ns, nil
	}
	// A short pass to warm caches and the heap, then spans off and on in
	// turn, three times: a pass is short, and one pair would let a GC cycle
	// pose as tracing overhead. The last traced pass is the one written.
	if _, err := pass(layerNotes/5, nil); err != nil {
		return err
	}
	var plain, traced []float64
	var rec *recorder
	for k := 0; k < 3; k++ {
		ns, err := pass(layerNotes, nil)
		if err != nil {
			return err
		}
		plain = append(plain, ns)
		rec = newRecorder(32 * layerNotes)
		if ns, err = pass(layerNotes, rec); err != nil {
			return err
		}
		traced = append(traced, ns)
	}
	plainNs, tracedNs := median(plain), median(traced)
	file := filepath.Join(outDir, "trace-"+in.workload+".json")
	if err := rec.write(file); err != nil {
		return err
	}

	// Per delivered note on both sides: the live run's CPU is divided by
	// its deliveries, so the path's self times are divided by the path's.
	deliveries := float64(expectedTallies(in, layerNotes))
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	accounted := 0.0
	for name, ns := range self {
		names = append(names, name)
		accounted += float64(ns) / deliveries
	}
	sort.Strings(names)
	r.note("cost budget per delivered note (%d notes, %.0f deliveries, %d spans, %s):", layerNotes, deliveries, len(rec.spans), file)
	for _, name := range names {
		r.note("  self %-14s %9.0f ns", name, float64(self[name])/deliveries)
	}
	overhead := 100 * (tracedNs - plainNs) / plainNs
	r.note("  layers' self times sum to %.0f ns; the untraced run spent %.0f ns of CPU per delivered note; unaccounted_ns = %.0f", accounted, cpuNsPerNote, cpuNsPerNote-accounted)
	r.note("  path per published note: %.0f ns untraced, %.0f ns traced: tracing overhead %.1f %%", plainNs, tracedNs, overhead)
	r.layer("trace.accounted_ns", accounted)
	r.layer("trace.unaccounted_ns", cpuNsPerNote-accounted)
	r.layer("trace.overhead_pct", overhead)
	return nil
}
