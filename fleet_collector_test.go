package rebeca_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/telemetry"
	"rebeca/internal/telemetry/collector"
	"rebeca/internal/wire"
)

// fleetBroker is one live TCP broker process with its own telemetry
// stack — registry, span store, hop-tracing middleware, and a pusher
// aimed at the shared collector — exactly what rebeca-broker assembles
// from flags.
type fleetBroker struct {
	node   *wire.Node
	reg    *telemetry.Registry
	spans  *telemetry.SpanStore
	pusher *telemetry.Pusher
}

func newFleetBroker(t *testing.T, id message.NodeID, peers map[message.NodeID]string, next map[message.NodeID]message.NodeID, collectorURL string) *fleetBroker {
	t.Helper()
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanStore(0)
	mw := telemetry.NewMiddleware(reg)
	mw.SetSampler(telemetry.NewSampler(spans, 1, 0))
	mw.EnableHopTrace(true)
	telemetry.RegisterSpanMetrics(reg, spans)
	node := wire.NewNode(wire.NodeConfig{
		ID:         id,
		Listen:     "127.0.0.1:0",
		Peers:      peers,
		NextHop:    next,
		Middleware: []broker.Middleware{mw},
	})
	if err := node.Start(); err != nil {
		t.Fatalf("start %s: %v", id, err)
	}
	p, err := telemetry.NewPusher(reg, telemetry.PusherConfig{
		URL:      collectorURL,
		Interval: time.Hour, // flushed by hand — the test controls push timing
		Instance: string(id),
		Spans:    spans,
	})
	if err != nil {
		node.Close()
		t.Fatalf("pusher %s: %v", id, err)
	}
	fb := &fleetBroker{node: node, reg: reg, spans: spans, pusher: p}
	t.Cleanup(func() {
		fb.pusher.Close()
		_ = fb.node.Close()
	})
	return fb
}

func collectorGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestFleetCollectorEndToEnd is the acceptance scenario: two broker
// processes on a live TCP overlay each ship their partial spans for the
// same notification to one collector, and the collector's /trace view
// returns the merged multi-hop path with monotone hop timestamps.
func TestFleetCollectorEndToEnd(t *testing.T) {
	c := collector.New(collector.Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A <-> B over real TCP; B dials A.
	a := newFleetBroker(t, "A", map[message.NodeID]string{"B": ""},
		map[message.NodeID]message.NodeID{"B": "B"}, srv.URL)
	b := newFleetBroker(t, "B", map[message.NodeID]string{"A": a.node.Addr()},
		map[message.NodeID]message.NodeID{"A": "A"}, srv.URL)

	// Subscriber at B; wait for the subscription to propagate to A.
	delivered := make(chan message.Notification, 1)
	sub := wire.NewRemoteClient("sub", func(n message.Notification, _ []message.SubID) {
		select {
		case delivered <- n:
		default:
		}
	})
	if err := sub.Connect(b.node.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Disconnect() }()
	f := filter.New(filter.Eq("kind", message.String("fleet")))
	if err := sub.Send(proto.Message{Kind: proto.KSubscribe, Client: "sub",
		Sub: &proto.Subscription{ID: "sub/s1", Filter: f}}); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, func() bool {
		n := 0
		a.node.Inspect(func(br *broker.Broker) { n = br.Router().Table().Len() })
		return n >= 1
	}, "subscription propagation to A")

	// Publish at A: the notification transits A then B, stamping a hop at
	// each — so A's span store holds the one-hop prefix and B's the full
	// two-hop path. That split is what the collector must reassemble.
	pub := wire.NewRemoteClient("pub", nil)
	if err := pub.Connect(a.node.Addr(), "", nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Disconnect() }()
	note := message.NewNotification(map[string]message.Value{"kind": message.String("fleet")})
	note.ID = message.NotificationID{Publisher: "pub", Seq: 1}
	if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &note}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived at B")
	}
	waitForCond(t, func() bool {
		return len(a.spans.Get(note.ID)) >= 1 && len(b.spans.Get(note.ID)) >= 2
	}, "hop spans recorded on both brokers")

	// Each broker ships its snapshot + spans — B first, so the collector
	// sees the full path before the prefix (order must not matter).
	b.pusher.Flush()
	a.pusher.Flush()
	waitForCond(t, func() bool {
		return a.pusher.SpansShipped() >= 1 && b.pusher.SpansShipped() >= 1
	}, "span batches shipped")

	// The merged trace: two hops, A then B, monotone timestamps, complete.
	code, body := collectorGet(t, srv.URL, "/trace?note="+url.QueryEscape(note.ID.String()))
	if code != http.StatusOK {
		t.Fatalf("/trace = %d: %s", code, body)
	}
	var tr struct {
		Note      string   `json:"note"`
		Partial   bool     `json:"partial"`
		Reporters []string `json:"reporters"`
		Hops      []struct {
			Hop    int       `json:"hop"`
			Broker string    `json:"broker"`
			At     time.Time `json:"at"`
		} `json:"hops"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace json: %v (%s)", err, body)
	}
	if len(tr.Hops) != 2 {
		t.Fatalf("merged trace = %+v, want the 2-hop A->B path", tr)
	}
	for i, want := range []string{"A", "B"} {
		if tr.Hops[i].Broker != want || tr.Hops[i].Hop != i {
			t.Fatalf("hop %d = %+v, want broker %s", i, tr.Hops[i], want)
		}
	}
	if tr.Hops[1].At.Before(tr.Hops[0].At) {
		t.Fatalf("hop timestamps not monotone: %+v", tr.Hops)
	}
	if tr.Partial {
		t.Fatalf("both reporters pushed; trace still partial: %+v", tr)
	}
	if len(tr.Reporters) != 2 {
		t.Fatalf("reporters = %v, want [A B]", tr.Reporters)
	}

	// The aggregated scrape re-exports each broker's families under its
	// instance label and folds fleet counter totals across both.
	code, metrics := collectorGet(t, srv.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("collector /metrics = %d", code)
	}
	for _, want := range []string{
		`rebeca_publishes_total{broker="A",instance="A"} 1`,
		`rebeca_publishes_total{broker="B",instance="B"} 1`,
		"rebeca_fleet_publishes_total 2",
		"rebeca_fleet_deliveries_total 1",
		"rebeca_collector_pushes_total",
		"rebeca_go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("collector scrape missing %q:\n%s", want, grepLines(metrics, "rebeca_fleet"))
		}
	}

	// /fleet sees both brokers, fresh.
	code, fleetBody := collectorGet(t, srv.URL, "/fleet")
	if code != http.StatusOK {
		t.Fatalf("/fleet = %d", code)
	}
	var fleet struct {
		Stale   int `json:"stale"`
		Brokers []struct {
			Instance string `json:"instance"`
			Status   string `json:"status"`
		} `json:"brokers"`
	}
	if err := json.Unmarshal([]byte(fleetBody), &fleet); err != nil {
		t.Fatalf("fleet json: %v (%s)", err, fleetBody)
	}
	if len(fleet.Brokers) != 2 || fleet.Stale != 0 {
		t.Fatalf("fleet = %+v, want brokers A and B fresh", fleet)
	}
	for _, br := range fleet.Brokers {
		if br.Status != "ok" {
			t.Fatalf("broker %s status = %s", br.Instance, br.Status)
		}
	}
}

func waitForCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
