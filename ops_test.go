package rebeca_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rebeca"
)

// opsGet fetches one ops-endpoint path and returns status and body.
func opsGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
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

// waitReady polls /readyz until it reports the wanted status.
func waitReady(t *testing.T, addr string, wantReady bool, within time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(within)
	var last string
	for time.Now().Before(deadline) {
		code, body := opsGet(t, addr, "/readyz?verbose")
		last = fmt.Sprintf("%d %s", code, body)
		if (code == http.StatusOK) == wantReady {
			return last
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("readyz never reached ready=%v; last: %s", wantReady, last)
	return last
}

// TestLiveOpsEndpoint drives the acceptance scenario end to end on a
// 3-broker TCP line: valid Prometheus /metrics whose counters move under
// traffic, /readyz gated on overlay convergence (flipping across a link
// cut and heal), and /trace reconstructing a publish's multi-hop path.
func TestLiveOpsEndpoint(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	d, err := rebeca.NewLive(
		rebeca.WithMovement(g),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithHeartbeat(40*time.Millisecond, 160*time.Millisecond),
		rebeca.WithSettleWindow(60*time.Millisecond, 10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	addr := d.OpsAddr()
	if addr == "" {
		t.Fatal("OpsAddr empty with WithOps configured")
	}

	// Readiness: both links must establish (including the initial routing
	// sync each establishment applies).
	waitReady(t, addr, true, 5*time.Second)

	// Traffic across the full line: subscriber at C, publisher at A.
	sub := d.NewClient("carol")
	if err := sub.Connect("C"); err != nil {
		t.Fatal(err)
	}
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Eq("kind", rebeca.String("ops-test"))))
	defer s.Cancel()
	pub := d.NewClient("alice")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	d.Settle()

	noteID, err := pub.Publish(map[string]rebeca.Value{"kind": rebeca.String("ops-test")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived at C")
	}

	// /metrics: Prometheus exposition with the expected families, counters
	// moved by the traffic above.
	code, metrics := opsGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, name := range []string{
		"rebeca_publishes_total",
		"rebeca_deliveries_total",
		"rebeca_subscribes_total",
		"rebeca_match_seconds_bucket",
		"rebeca_e2e_latency_seconds_count",
		"rebeca_link_state",
		"rebeca_codec_frame_bytes_bucket",
		"rebeca_trace_spans_retained",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(metrics, `rebeca_deliveries_total{broker="C"} 1`) {
		t.Errorf("delivery counter did not move:\n%s", grepLines(metrics, "rebeca_deliveries_total"))
	}
	// The publish transited A, B and C: every broker's publish counter moved.
	for _, b := range []string{"A", "B", "C"} {
		if !strings.Contains(metrics, fmt.Sprintf(`rebeca_publishes_total{broker=%q} 1`, b)) {
			t.Errorf("publish counter for %s did not move:\n%s", b, grepLines(metrics, "rebeca_publishes_total"))
		}
	}

	// /trace: the hop-propagated span reconstructs the A→B→C path.
	code, body := opsGet(t, addr, "/trace?note="+url.QueryEscape(noteID.String()))
	if code != http.StatusOK {
		t.Fatalf("/trace = %d: %s", code, body)
	}
	var tr struct {
		Note string `json:"note"`
		Hops []struct {
			Broker string    `json:"broker"`
			At     time.Time `json:"at"`
		} `json:"hops"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace json: %v (%s)", err, body)
	}
	if len(tr.Hops) != 3 {
		t.Fatalf("trace path = %+v, want 3 hops", tr.Hops)
	}
	for i, want := range []string{"A", "B", "C"} {
		if tr.Hops[i].Broker != want {
			t.Fatalf("hop %d = %s, want %s (path %+v)", i, tr.Hops[i].Broker, want, tr.Hops)
		}
	}
	for i := 1; i < len(tr.Hops); i++ {
		if tr.Hops[i].At.Before(tr.Hops[i-1].At) {
			t.Fatalf("hop timestamps not monotonic: %+v", tr.Hops)
		}
	}

	// Readiness flips exactly with overlay convergence: cut a link, the
	// endpoint goes not-ready; heal it, ready returns.
	if err := d.CutLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	waitReady(t, addr, false, 5*time.Second)
	if err := d.HealLink("A", "B"); err != nil {
		t.Fatal(err)
	}
	waitReady(t, addr, true, 10*time.Second)

	// /config: knobs render and apply at runtime.
	code, body = opsGet(t, addr, "/config")
	if code != http.StatusOK || !strings.Contains(body, `"heartbeat"`) || !strings.Contains(body, `"trace"`) {
		t.Fatalf("/config = %d: %s", code, body)
	}
	resp, err := http.PostForm("http://"+addr+"/config", url.Values{"heartbeat": {"80ms,320ms"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config POST = %d", resp.StatusCode)
	}
	code, body = opsGet(t, addr, "/config")
	if code != http.StatusOK || !strings.Contains(body, "80ms") {
		t.Fatalf("heartbeat knob did not apply: %s", body)
	}
}

// grepLines filters an exposition dump to lines containing substr, for
// readable failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestSystemOpsEndpoint: the virtual-clock flavor hosts the same
// endpoint, with readiness from the simulated overlay managers.
func TestSystemOpsEndpoint(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	sys, err := rebeca.New(
		rebeca.WithMovement(g),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithHeartbeat(50*time.Millisecond, 200*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.OpsAddr()

	// Drive the virtual clock through overlay convergence.
	sys.Settle()
	waitReady(t, addr, true, 2*time.Second)

	sub := sys.NewClient("carol")
	_ = sub.Connect("C")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Eq("kind", rebeca.String("ops-test"))))
	defer s.Cancel()
	pub := sys.NewClient("alice")
	_ = pub.Connect("A")
	sys.Settle()
	noteID, err := pub.Publish(map[string]rebeca.Value{"kind": rebeca.String("ops-test")})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	code, metrics := opsGet(t, addr, "/metrics")
	if code != http.StatusOK || !strings.Contains(metrics, `rebeca_deliveries_total{broker="C"} 1`) {
		t.Fatalf("/metrics = %d:\n%s", code, grepLines(metrics, "rebeca_deliveries_total"))
	}

	code, body := opsGet(t, addr, "/trace?note="+url.QueryEscape(noteID.String()))
	if code != http.StatusOK || !strings.Contains(body, `"broker": "B"`) {
		t.Fatalf("/trace = %d: %s", code, body)
	}
}

// TestMetricsViewAgreesWithScrape: a deployment with both a Metrics view
// and an ops endpoint has one telemetry stage and one registry, so what
// Snapshot reports is what one /metrics scrape reports, broker by broker,
// and no counter family is rendered twice.
func TestMetricsViewAgreesWithScrape(t *testing.T) {
	metrics := rebeca.NewMetrics()
	sys, err := rebeca.New(
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithMiddleware(metrics),
		rebeca.WithOps("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if res := runHandoverScenario(t, sys, metrics); len(res.received) != 10 {
		t.Fatalf("scenario delivered %v, want 10 notifications", res.received)
	}

	_, scrape := opsGet(t, sys.OpsAddr(), "/metrics")
	snap := metrics.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot covers %d brokers, want 3: %v", len(snap), snap)
	}
	for b, bm := range snap {
		for family, want := range map[string]int{
			"rebeca_publishes_total":  bm.Publishes,
			"rebeca_deliveries_total": bm.Deliveries,
			"rebeca_subscribes_total": bm.Subscribes,
		} {
			line := fmt.Sprintf("%s{broker=%q} %d\n", family, b, want)
			if !strings.Contains(scrape, line) {
				t.Errorf("Snapshot()[%s] disagrees with the scrape: want line %q, scrape has\n%s",
					b, line, grepLines(scrape, family+"{"))
			}
		}
	}
	if snap["B0"].Deliveries+snap["B1"].Deliveries != 10 || snap["B2"].Publishes != 10 {
		t.Errorf("snapshot does not describe the scenario: %v", snap)
	}
	for _, family := range []string{"rebeca_publishes_total", "rebeca_deliveries_total", "rebeca_subscribes_total"} {
		if got := strings.Count(scrape, "# TYPE "+family+" "); got != 1 {
			t.Errorf("/metrics has %d TYPE blocks for %s, want 1", got, family)
		}
		if got := strings.Count(scrape, family+"{"); got != 3 {
			t.Errorf("/metrics has %d %s samples, want one per broker", got, family)
		}
	}
}

// TestOpsWithoutOptionAbsent: without WithOps nothing listens and the
// accessors report empty.
func TestOpsWithoutOptionAbsent(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	d, err := rebeca.NewLive(rebeca.WithMovement(g))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.OpsAddr() != "" {
		t.Fatalf("OpsAddr = %q without WithOps", d.OpsAddr())
	}
}

// TestOpsListenerReleasedOnFailedBuild: the ops listener is bound before
// the brokers are built, so every constructor that fails after binding it
// releases it again.
func TestOpsListenerReleasedOnFailedBuild(t *testing.T) {
	free := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	for name, build := range map[string]func(ops string) error{
		// A spill needs the overlay, refused once the stack is built.
		"New": func(ops string) error {
			_, err := rebeca.New(rebeca.WithOps(ops), rebeca.WithLinkSpill(rebeca.NewMemoryStore(), 0))
			return err
		},
		// The broker's own listener cannot bind.
		"StartBroker": func(ops string) error {
			_, err := rebeca.StartBroker(rebeca.BrokerSpec{ID: "A", Listen: "256.0.0.1:1", Edges: [][2]rebeca.NodeID{{"A", "B"}}},
				rebeca.WithOps(ops))
			return err
		},
	} {
		ops := free()
		if err := build(ops); err == nil {
			t.Fatalf("%s: built, want an error", name)
		}
		ln, err := net.Listen("tcp", ops)
		if err != nil {
			t.Fatalf("%s left the ops listener bound: %v", name, err)
		}
		ln.Close()
	}
}

// TestTelemetryRace hammers the metric surfaces — Metrics middleware
// snapshots, the telemetry registry scrape, and overlay link states —
// while publish/deliver traffic and link flaps run, on both deployment
// flavors. Run with -race (the CI tier does).
func TestTelemetryRace(t *testing.T) {
	flavors := []struct {
		name  string
		build func(t *testing.T, opts ...rebeca.Option) *chaosHarness
	}{
		{"system", simChaosHarness},
		{"live", liveChaosHarness},
	}
	for _, fl := range flavors {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			metrics := rebeca.NewMetrics()
			h := fl.build(t,
				rebeca.WithMovement(rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")),
				rebeca.WithMiddleware(metrics),
				rebeca.WithOps("127.0.0.1:0"),
			)
			type opsAddressed interface{ OpsAddr() string }
			addr := h.d.(opsAddressed).OpsAddr()

			sub := h.d.NewClient("carol")
			if err := sub.Connect("C"); err != nil {
				t.Fatal(err)
			}
			s := sub.Subscribe(rebeca.NewFilter())
			defer s.Cancel()
			pub := h.d.NewClient("alice")
			if err := pub.Connect("A"); err != nil {
				t.Fatal(err)
			}
			h.advance(100 * time.Millisecond)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Readers: middleware snapshots, registry scrapes, link states.
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							_ = metrics.Snapshot()
							_ = metrics.Totals()
							_ = h.chaos.LinkStates("B")
							code, _ := opsGet(t, addr, "/metrics")
							if code != http.StatusOK {
								return
							}
						}
					}
				}()
			}
			// Traffic + link flaps from the main goroutine (Port commands
			// are single-goroutine by contract).
			for i := 0; i < 30; i++ {
				if _, err := pub.Publish(map[string]rebeca.Value{
					"n": rebeca.Int(int64(i)),
				}); err != nil {
					t.Fatal(err)
				}
				if i%10 == 9 {
					_ = h.chaos.CutLink("A", "B")
					h.advance(20 * time.Millisecond)
					_ = h.chaos.HealLink("A", "B")
					h.advance(50 * time.Millisecond)
				}
			}
			h.advance(200 * time.Millisecond)
			close(stop)
			wg.Wait()
		})
	}
}
