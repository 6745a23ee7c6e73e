package bench

import (
	"fmt"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
	"rebeca/internal/sim"
)

// E10OverlayReconvergence measures the overlay's self-healing: on a
// broker line with k subscriptions installed at one end, the middle link
// is cut and healed; the table reports how long (virtual time) failure
// detection and routing reconvergence take, how many handshake/replay
// messages the heal costs, and that the backlog published into the cut
// flushed gap-free.
func E10OverlayReconvergence(seed int64) Table {
	t := Table{
		ID:      "E10",
		Caption: "Overlay link failure: detection, reconvergence and replay cost",
		Header: []string{"brokers", "subs", "detect-ms", "reconverge-ms",
			"sync-msgs", "replayed-subs", "backlog", "delivered"},
		Notes: "detection is bounded by the heartbeat timeout; reconvergence by redial backoff + handshake; sync cost grows with installed state",
	}
	for _, shape := range []struct {
		brokers int
		subs    int
	}{
		{4, 4}, {8, 16}, {16, 64},
	} {
		row := overlayReconvergeRun(shape.brokers, shape.subs, seed)
		t.AddRow(itoa(shape.brokers), itoa(shape.subs),
			fmt.Sprintf("%d", row.detect.Milliseconds()),
			fmt.Sprintf("%d", row.reconverge.Milliseconds()),
			itoa(row.syncMsgs), itoa(row.replayed), itoa(row.backlog), itoa(row.delivered))
	}
	return t
}

type overlayRunResult struct {
	detect     time.Duration
	reconverge time.Duration
	syncMsgs   int
	replayed   int
	backlog    int
	delivered  int
}

// overlayReconvergeRun builds a line b0-…-b(n-1), subscribes k filters at
// b0, publishes through a cut middle link, and times detection and
// re-establishment on the virtual clock.
func overlayReconvergeRun(brokers, subs int, seed int64) overlayRunResult {
	g := movement.NewGraph()
	ids := make([]message.NodeID, brokers)
	for i := range ids {
		ids[i] = message.NodeID(fmt.Sprintf("b%02d", i))
	}
	for i := 1; i < brokers; i++ {
		g.AddEdge(ids[i-1], ids[i])
	}
	hb := 50 * time.Millisecond
	set := overlay.Settings{
		HeartbeatInterval: hb,
		HeartbeatTimeout:  3 * hb,
		BackoffBase:       25 * time.Millisecond,
		BackoffMax:        100 * time.Millisecond,
		BackoffSeed:       seed,
	}
	rec := &linkLog{}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Movement:   g,
		Overlay:    &set,
		Middleware: []broker.Middleware{rec},
	})
	if err != nil {
		panic(err)
	}

	sub := c.AddClient("sub")
	sub.ConnectTo(ids[0])
	for i := 0; i < subs; i++ {
		sub.Subscribe(filter.New(filter.Eq("k", message.Int(int64(i)))))
	}
	pub := c.AddClient("pub")
	pub.ConnectTo(ids[brokers-1])
	c.Net.Run()

	// Cut the middle edge and let the heartbeats detect it.
	left, right := ids[brokers/2-1], ids[brokers/2]
	cutAt := c.Net.Now()
	c.CutLink(left, right)
	c.Net.RunFor(5 * set.HeartbeatTimeout)
	var detectedAt time.Time
	for _, ev := range rec.events {
		if ev.To == overlay.StateDegraded && detectedAt.IsZero() {
			detectedAt = ev.At
		}
	}
	if detectedAt.IsZero() {
		detectedAt = c.Net.Now()
	}

	// Publish a backlog into the cut (queues at the link manager).
	backlog := subs
	for i := 0; i < backlog; i++ {
		pub.Publish(map[string]message.Value{"k": message.Int(int64(i % subs))})
	}
	c.Net.Run()

	syncBefore := c.Net.Stats().ByKind[proto.KSyncInstall]
	healAt := c.Net.Now()
	c.HealLink(left, right)
	c.Net.RunFor(2 * time.Second)
	c.Net.Run()
	var reconvergedAt time.Time
	for _, ev := range rec.events {
		if ev.To == overlay.StateEstablished && ev.At.After(healAt) {
			reconvergedAt = ev.At
		}
	}
	if reconvergedAt.IsZero() {
		reconvergedAt = c.Net.Now()
	}

	// Reconvergence is observable as the healed side holding the k
	// subscriptions again (re-learned through the sync replay).
	replayed := c.Brokers[right].Router().Table().Len()

	return overlayRunResult{
		detect:     detectedAt.Sub(cutAt),
		reconverge: reconvergedAt.Sub(healAt),
		syncMsgs:   c.Net.Stats().ByKind[proto.KSyncInstall] - syncBefore,
		replayed:   replayed,
		backlog:    backlog,
		delivered:  int(sub.Delivered()),
	}
}

// linkLog is a chain stage collecting every broker's link transitions, in
// the order the overlay reports them.
type linkLog struct {
	broker.PassMiddleware
	events []overlay.Event
}

func (l *linkLog) OnLinkChange(_ *broker.Broker, ev overlay.Event) {
	l.events = append(l.events, ev)
}
