package rebeca

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rebeca/internal/discovery"
	"rebeca/internal/telemetry/collector"
)

// collectorGet serves one GET from the collector's HTTP surface.
func collectorGet(t *testing.T, c *collector.Collector, path string) (int, string) {
	t.Helper()
	w := httptest.NewRecorder()
	c.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code, w.Body.String()
}

// runCollector starts a collector over the registry at uri, scraping every
// 50 ms until the test ends.
func runCollector(t *testing.T, uri string) *collector.Collector {
	t.Helper()
	reg, err := discovery.Open(uri)
	if err != nil {
		t.Fatal(err)
	}
	c := collector.New(collector.Config{Registry: reg, Interval: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		c.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		_ = reg.Close()
	})
	return c
}

// assembledTrace waits until the collector has assembled a complete trace
// of note with at least minHops hops, and returns it.
func assembledTrace(t *testing.T, c *collector.Collector, note NotificationID, minHops int) collector.AssembledTrace {
	t.Helper()
	var tr collector.AssembledTrace
	eventually(t, 10*time.Second, "a complete assembled trace of "+note.String(), func() bool {
		code, body := collectorGet(t, c, "/trace?note="+url.QueryEscape(note.String()))
		if code != http.StatusOK {
			return false
		}
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Fatalf("trace json: %v (%s)", err, body)
		}
		return len(tr.Hops) >= minHops && !tr.Partial
	})
	for i, h := range tr.Hops {
		if h.Hop != i || i > 0 && h.At.Before(tr.Hops[i-1].At) {
			t.Fatalf("hops not in monotone stamp order: %+v", tr.Hops)
		}
	}
	return tr
}

// fleetStatus reads the collector's /fleet view.
func fleetStatus(t *testing.T, c *collector.Collector) collector.FleetStatus {
	t.Helper()
	_, body := collectorGet(t, c, "/fleet")
	var f collector.FleetStatus
	if err := json.Unmarshal([]byte(body), &f); err != nil {
		t.Fatalf("fleet json: %v (%s)", err, body)
	}
	return f
}

// deliverOnce subscribes at to, waits until the subscription reaches from
// and publishes one note there; it returns the note once delivered.
func deliverOnce(t *testing.T, l *Live, from, to NodeID) NotificationID {
	t.Helper()
	got := make(chan NotificationID, 1)
	sub := l.NewClient("sub")
	sub.OnNotify(func(n Notification) {
		select {
		case got <- n.ID:
		default:
		}
	})
	if err := sub.Connect(to); err != nil {
		t.Fatal(err)
	}
	sub.Subscribe(NewFilter(Eq("kind", String("fleet"))))
	eventually(t, 5*time.Second, "the subscription at "+string(from), func() bool {
		n := 0
		l.nodes[from].node.Inspect(func(b *Broker) { n = b.Router().Table().Len() })
		return n >= 1
	})
	pub := l.NewClient("pub")
	if err := pub.Connect(from); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(map[string]Value{"kind": String("fleet")}); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-got:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("the note never arrived")
	}
	return NotificationID{}
}

// TestFleetCollectorEndToEnd is the acceptance scenario: three brokers
// started as rebeca-broker starts them, on one file: registry with an ops
// endpoint each, and a collector that reads that registry. Nothing tells
// a broker about the collector. The collector assembles the note's
// multi-hop trace from the partial spans of the brokers it crossed, its
// fleet total is the sum of its per-broker rows, and a broker whose
// endpoint goes away turns stale.
func TestFleetCollectorEndToEnd(t *testing.T) {
	uri := "file:" + filepath.Join(t.TempDir(), "peers.json")
	l := fleet(t)
	defer l.Close()
	for _, id := range []NodeID{"c1", "c2", "c3"} {
		node, err := StartBroker(BrokerSpec{ID: id},
			WithRegistry(uri), WithOps("127.0.0.1:0"), WithHeartbeat(100*time.Millisecond, 0))
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		l.put(node)
	}
	waitFullMesh(t, l)
	c := runCollector(t, uri)

	// Published at c1, delivered at c3: c1 serves the one-hop prefix of
	// the span, c3 the full path, and the collector merges them.
	note := deliverOnce(t, l, "c1", "c3")
	tr := assembledTrace(t, c, note, 2)
	if tr.Hops[0].Broker != "c1" || tr.Hops[len(tr.Hops)-1].Broker != "c3" {
		t.Fatalf("merged trace = %+v, want c1 first and c3 last", tr)
	}

	// The merged scrape re-exports each broker's families under its
	// instance label and folds the fleet totals: within one render the
	// total is the sum of the per-broker rows (every broker the note
	// transits counts its publish).
	var metrics string
	eventually(t, 5*time.Second, "the publish on c1's and c3's rows", func() bool {
		_, metrics = collectorGet(t, c, "/metrics")
		return strings.Contains(metrics, `rebeca_publishes_total{broker="c1",instance="c1"} 1`) &&
			strings.Contains(metrics, `rebeca_publishes_total{broker="c3",instance="c3"} 1`)
	})
	rows, total := 0.0, -1.0
	for _, line := range strings.Split(metrics, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(f[0], "rebeca_publishes_total{") && strings.Contains(f[0], `instance="`):
			rows += v
		case f[0] == "rebeca_fleet_publishes_total":
			total = v
		}
	}
	if total != rows || total < 2 {
		t.Fatalf("rebeca_fleet_publishes_total %v, but its per-broker rows sum to %v", total, rows)
	}
	for _, want := range []string{
		`rebeca_collector_scrapes_total{result="ok",instance="collector"}`,
		"rebeca_go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("collector scrape missing %q:\n%s", want, metrics)
		}
	}

	// /fleet lists all three, fresh.
	f := fleetStatus(t, c)
	if len(f.Brokers) != 3 || f.Stale != 0 {
		t.Fatalf("fleet = %+v, want c1, c2 and c3 fresh", f)
	}
	for i, b := range f.Brokers {
		if want := fmt.Sprintf("c%d", i+1); b.Instance != want || b.Ops != advertiseAddr(l.nodes[NodeID(want)].OpsAddr(), "") {
			t.Fatalf("fleet row %d = %+v, want %s at its ops endpoint", i, b, want)
		}
	}

	// c2's endpoint goes away while c2 stays registered: stale.
	l.nodes["c2"].ops.close()
	eventually(t, 5*time.Second, "c2 stale on /fleet", func() bool {
		f = fleetStatus(t, c)
		return f.Stale == 1
	})
	for _, b := range f.Brokers {
		if (b.Status == "stale") != (b.Instance == "c2") {
			t.Fatalf("fleet = %+v, want exactly c2 stale", f)
		}
	}
}

// TestFleetCollectorSharedEndpoint: the brokers of one NewLive share one
// ops endpoint and register it under each of their IDs; the collector
// scrapes it once per round, as one instance named by the joined IDs, and
// that instance reports for every one of them.
func TestFleetCollectorSharedEndpoint(t *testing.T) {
	uri := "file:" + filepath.Join(t.TempDir(), "peers.json")
	l, err := NewLive(WithMovement(Line(2)), WithRegistry(uri), WithOps("127.0.0.1:0"),
		WithHeartbeat(100*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	waitFullMesh(t, l)
	c := runCollector(t, uri)

	note := deliverOnce(t, l, "B0", "B1")
	tr := assembledTrace(t, c, note, 2)
	if strings.Join(tr.Reporters, ",") != "B0,B1" {
		t.Fatalf("reporters = %v, want both brokers of the one instance", tr.Reporters)
	}
	f := fleetStatus(t, c)
	if len(f.Brokers) != 1 || f.Brokers[0].Instance != "B0,B1" || f.Brokers[0].Status != "ok" {
		t.Fatalf("fleet = %+v, want one fresh instance B0,B1", f)
	}
	eventually(t, 5*time.Second, "the shared instance's rows", func() bool {
		_, metrics := collectorGet(t, c, "/metrics")
		return strings.Contains(metrics, `rebeca_publishes_total{broker="B0",instance="B0,B1"} 1`)
	})
}

// TestOpsRegisteredOnAdvertisedHost: a broker whose ops endpoint binds an
// unspecified host registers it on BrokerSpec.Advertise's host, so a
// collector on another machine scrapes that broker, not its own loopback.
func TestOpsRegisteredOnAdvertisedHost(t *testing.T) {
	uri := "file:" + filepath.Join(t.TempDir(), "peers.json")
	node, err := StartBroker(BrokerSpec{ID: "d1", Advertise: "10.1.2.3:7471"},
		WithRegistry(uri), WithOps(":0"))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close(0)
	_, port, err := net.SplitHostPort(node.OpsAddr())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := discovery.Open(uri)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	entries, err := reg.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Addr != "10.1.2.3:7471" || entries[0].Ops != "10.1.2.3:"+port {
		t.Fatalf("registered %+v, want d1 at 10.1.2.3:7471 with ops 10.1.2.3:%s", entries, port)
	}
}
