package main

import (
	"fmt"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/client"
	"rebeca/internal/codec"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/wire"
)

// path is a workload's route rebuilt from the layers' exported functions:
// real brokers (broker.New) on the workload's topology, wired by the
// benchmark's own Send callback, which takes every message through
// codec.AppendMessage, a real wire.Conn and codec.DecodeMessage before the
// next broker's HandleMessage sees it, and ends in client.Tally.Record.
// Everything runs one call at a time on one goroutine, so each call can be
// a span; the queue keeps a broker from being re-entered mid-message.
//
// What the path leaves out is exactly what the live run adds: goroutine
// hand-offs, socket reads, channel hops, the session plugins. That
// remainder is the budget's unaccounted_ns.
type path struct {
	rec     *recorder
	brokers map[message.NodeID]*broker.Broker
	tallies map[message.NodeID]*client.Tally
	conn    *wire.Conn // nil: hops are direct calls (sim-logical has no sockets)
	queue   []hop
	trace   string // trace ID of the note being routed
	root    int    // the note's root span: everything else runs inside it
	cur     int    // span now executing: parent and cause of whatever it sends
	tallied int
}

// hop is one message in flight between two nodes of the path.
type hop struct {
	from, to message.NodeID
	msg      proto.Message
	frame    []byte // encoded msg when the hop is wired
	cause    int
}

// newPath builds the brokers, attaches the workload's ports and installs
// its subscriptions (unwired and untraced: only note traffic is measured).
func newPath(in *inputs) *path {
	g := graphOf(in.workload)
	mesh := in.workload == wlMesh
	edges := g.SpanningTree()
	if mesh {
		edges = g.Edges()
	}
	topo := broker.Topology{Edges: edges}
	adj, hops := topo.Adjacency(), topo.NextHops()
	p := &path{brokers: map[message.NodeID]*broker.Broker{}, tallies: map[message.NodeID]*client.Tally{}}
	for _, id := range topo.Nodes() {
		b := broker.New(broker.Config{
			ID: id, Peers: adj[id], NextHop: hops[id], Now: time.Now,
			Send: func(to message.NodeID, m proto.Message) { p.send(id, to, m) },
		})
		if mesh {
			b.EnableMesh()
			b.SetMeshTopology(topo.Nodes(), edges)
		}
		p.brokers[id] = b
	}
	pubAt, subAt := placement(in)
	for i, at := range pubAt {
		p.inject(pubID(i), at, proto.Message{Kind: proto.KConnect, Client: pubID(i)})
	}
	for s, at := range subAt {
		p.tallies[subID(s)] = client.NewTally()
		p.inject(subID(s), at, proto.Message{Kind: proto.KConnect, Client: subID(s)})
		for i, f := range in.ports[s] {
			sub := proto.Subscription{ID: message.SubID(fmt.Sprintf("%s/s%d", subID(s), i+1)), Filter: f}
			p.inject(subID(s), at, proto.Message{Kind: proto.KSubscribe, Client: subID(s), Sub: &sub})
		}
	}
	return p
}

// inject hands a client's message to its border broker and runs the path
// until nothing is in flight.
func (p *path) inject(from, border message.NodeID, m proto.Message) {
	p.send(from, border, m)
	p.drain()
}

// send is every broker's transmit hook (and the clients'): on a wired path
// the message is encoded and written to the socket here, inside the
// sender's span, and decoded when the hop is taken off the queue.
func (p *path) send(from, to message.NodeID, m proto.Message) {
	h := hop{from: from, to: to, msg: m, cause: p.cur}
	if p.conn != nil {
		id := p.rec.begin(p.trace, "codec.encode", p.cur, p.cur)
		h.frame = codec.AppendMessage(nil, &m)
		p.rec.end(id)
		id = p.rec.begin(p.trace, "wire.send", p.cur, p.cur)
		_ = p.conn.Send(m) // the sink's answer is irrelevant; a dead conn shows as a wrong tally
		p.rec.end(id)
	}
	p.queue = append(p.queue, h)
}

func (p *path) drain() {
	for len(p.queue) > 0 {
		h := p.queue[0]
		p.queue = p.queue[1:]
		m := h.msg
		if h.frame != nil {
			id := p.rec.begin(p.trace, "codec.decode", p.root, h.cause)
			dec, err := codec.DecodeMessage(h.frame)
			p.rec.end(id)
			if err != nil {
				continue // counted as a missing delivery by the caller
			}
			m = dec
		}
		if b := p.brokers[h.to]; b != nil {
			p.cur = p.rec.begin(p.trace, "broker.handle", p.root, h.cause)
			b.HandleMessage(h.from, m)
			p.rec.end(p.cur)
			p.cur = p.root
			continue
		}
		if t := p.tallies[h.to]; t != nil && m.Kind == proto.KDeliver && m.Note != nil {
			id := p.rec.begin(p.trace, "client.tally", p.root, h.cause)
			fresh := t.Record(client.Delivery{Note: *m.Note, At: time.Now(), Subs: m.SubIDs})
			p.rec.end(id)
			if fresh {
				p.tallied++
			}
		}
	}
}

// route sends the workload's first n notes down the path, publishers
// interleaved, and returns the deliveries tallied and the time per note.
func (p *path) route(in *inputs, n int, rec *recorder) (tallied int, nsPerNote float64) {
	p.rec = rec
	pubAt, _ := placement(in)
	p.tallied = 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pub := i % len(pubAt)
		note := in.note(pub, i/len(pubAt))
		p.trace = note.ID.String()
		p.root = rec.begin(p.trace, "path.glue", 0, 0)
		p.cur = p.root
		p.send(pubID(pub), pubAt[pub], proto.Message{Kind: proto.KPublish, Client: pubID(pub), Note: &note})
		p.drain()
		rec.end(p.root)
	}
	return p.tallied, float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// expectedTallies is the reference matcher's count for the same n notes.
func expectedTallies(in *inputs, n int) int {
	pubs := len(in.pool)
	total := 0
	for s := range in.ports {
		for i := 0; i < n; i++ {
			if in.due(s, i%pubs, i/pubs) {
				total++
			}
		}
	}
	return total
}
