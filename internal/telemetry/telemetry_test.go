package telemetry_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/telemetry"
)

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestRegistryPrometheusExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("test_pubs_total", "Publishes.", telemetry.Labels{"broker": "A"})
	c.Add(3)
	reg.Counter("test_pubs_total", "Publishes.", telemetry.Labels{"broker": "B"}).Inc()
	h := reg.Histogram("test_lat_seconds", "Latency.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	reg.GaugeFunc("test_depth", "Depth.", func(emit func(telemetry.Labels, float64)) {
		emit(telemetry.Labels{"q": "x"}, 7)
	})

	out := scrape(t, reg)
	for _, want := range []string{
		"# HELP test_pubs_total Publishes.",
		"# TYPE test_pubs_total counter",
		`test_pubs_total{broker="A"} 3`,
		`test_pubs_total{broker="B"} 1`,
		"# TYPE test_lat_seconds histogram",
		`test_lat_seconds_bucket{le="0.1"} 1`,
		`test_lat_seconds_bucket{le="1"} 2`,
		`test_lat_seconds_bucket{le="+Inf"} 3`,
		"test_lat_seconds_count 3",
		"# TYPE test_depth gauge",
		`test_depth{q="x"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryTotalAndHistogramStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("t_total", "x", telemetry.Labels{"broker": "A"}).Add(2)
	reg.Counter("t_total", "x", telemetry.Labels{"broker": "B"}).Add(5)
	if got := reg.Total("t_total"); got != 7 {
		t.Fatalf("Total = %v, want 7", got)
	}
	h := reg.Histogram("t_lat", "x", telemetry.LatencyBuckets, nil)
	h.Observe(2)
	h.Observe(4)
	sum, count := reg.HistogramStats("t_lat")
	if sum != 6 || count != 2 {
		t.Fatalf("HistogramStats = (%v, %v), want (6, 2)", sum, count)
	}
}

func TestRegistryConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := reg.Counter("cc_total", "x", telemetry.Labels{"w": string(rune('a' + i))})
			h := reg.Histogram("cc_lat", "x", nil, nil)
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.001)
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		_ = scrape(t, reg)
		_ = reg.Total("cc_total")
	}
	close(stop)
	wg.Wait()
}

func TestSpanStoreBoundAndRetention(t *testing.T) {
	s := telemetry.NewSpanStore(2)
	id := func(seq uint64) message.NotificationID {
		return message.NotificationID{Publisher: "p", Seq: seq}
	}
	hop := func(b string) message.HopStamp {
		return message.HopStamp{Broker: message.NodeID(b), At: time.Unix(0, 1)}
	}
	s.Record(id(1), []message.HopStamp{hop("A")})
	s.Record(id(2), []message.HopStamp{hop("A")})
	// Re-record with a longer path wins; shorter does not regress it.
	s.Record(id(1), []message.HopStamp{hop("A"), hop("B")})
	s.Record(id(1), []message.HopStamp{hop("C")})
	if got := s.Get(id(1)); len(got) != 2 {
		t.Fatalf("path for id 1 = %+v, want 2 hops", got)
	}
	// A third ID evicts the oldest slot.
	s.Record(id(3), []message.HopStamp{hop("A")})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", s.Evicted())
	}
	if s.Get(id(3)) == nil {
		t.Fatal("newest span missing")
	}
}

func TestOpsReadyzFlips(t *testing.T) {
	reg := telemetry.NewRegistry()
	ops := telemetry.NewOps(reg, nil)
	var mu sync.Mutex
	ready := false
	ops.AddReadyCheck("links", func() (bool, string) {
		mu.Lock()
		defer mu.Unlock()
		if !ready {
			return false, "links not established: A-B:connecting"
		}
		return true, "1 link(s) established"
	})
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d before convergence, want 503 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "links not established") {
		t.Fatalf("readyz body missing detail: %s", body)
	}

	mu.Lock()
	ready = true
	mu.Unlock()
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ready") {
		t.Fatalf("readyz = %d %q after convergence, want 200 ready", resp.StatusCode, body)
	}
}

func TestOpsTraceEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanStore(0)
	id := message.NotificationID{Publisher: "alice", Seq: 9}
	spans.Record(id, []message.HopStamp{
		{Broker: "A", At: time.Unix(0, 1)},
		{Broker: "B", At: time.Unix(0, 2)},
		{Broker: "C", At: time.Unix(0, 3)},
	})
	ops := telemetry.NewOps(reg, spans)
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace?note=" + url.QueryEscape(id.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d, want 200", resp.StatusCode)
	}
	var got struct {
		Note string `json:"note"`
		Hops []struct {
			Hop    int    `json:"hop"`
			Broker string `json:"broker"`
		} `json:"hops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("trace json: %v", err)
	}
	if got.Note != id.String() || len(got.Hops) != 3 {
		t.Fatalf("trace = %+v, want 3 hops for %s", got, id)
	}
	if got.Hops[0].Broker != "A" || got.Hops[2].Broker != "C" {
		t.Fatalf("hop order wrong: %+v", got.Hops)
	}

	for path, want := range map[string]int{
		"/trace":               http.StatusOK,         // no note: retained-span listing
		"/trace?note=garbage":  http.StatusBadRequest, // unparseable id
		"/trace?note=bob%2312": http.StatusNotFound,   // never traced
		"/trace?limit=x":       http.StatusBadRequest, // unparseable limit
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestOpsTraceListing(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanStore(0)
	for seq := uint64(1); seq <= 3; seq++ {
		spans.Record(message.NotificationID{Publisher: "alice", Seq: seq},
			[]message.HopStamp{{Broker: "A", At: time.Unix(0, 1)}, {Broker: "B", At: time.Unix(0, 2)}})
	}
	spans.Observe(message.NotificationID{Publisher: "alice", Seq: 2}, 5*time.Millisecond)
	spans.RecordReason(message.NotificationID{Publisher: "bob", Seq: 7}, nil, 0, "rate-limited")
	ops := telemetry.NewOps(reg, spans)
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	var got struct {
		Retained int `json:"retained"`
		Spans    []struct {
			Note      string  `json:"note"`
			Hops      int     `json:"hops"`
			LatencyMS float64 `json:"latency_ms"`
			Reason    string  `json:"reason"`
		} `json:"spans"`
	}
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("trace listing json: %v", err)
	}
	if got.Retained != 4 || len(got.Spans) != 4 {
		t.Fatalf("retained=%d spans=%d, want 4/4", got.Retained, len(got.Spans))
	}
	// Newest-first: bob#7 recorded last.
	if got.Spans[0].Note != "bob#7" || got.Spans[0].Reason != "rate-limited" {
		t.Fatalf("listing head = %+v, want bob#7 rate-limited", got.Spans[0])
	}
	if got.Spans[3].Note != "alice#1" || got.Spans[3].Hops != 2 {
		t.Fatalf("listing tail = %+v, want alice#1 with 2 hops", got.Spans[3])
	}
	for _, s := range got.Spans {
		if s.Note == "alice#2" && s.LatencyMS != 5 {
			t.Fatalf("alice#2 latency_ms = %v, want 5", s.LatencyMS)
		}
	}

	// limit clips from the newest end.
	resp2, err := http.Get(srv.URL + "/trace?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatalf("limited listing json: %v", err)
	}
	if got.Retained != 4 || len(got.Spans) != 2 || got.Spans[0].Note != "bob#7" {
		t.Fatalf("limited listing = %+v, want newest 2 of 4", got)
	}
}

func TestOpsConfigKnobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	ops := telemetry.NewOps(reg, nil)
	val := "1s"
	ops.AddKnob("heartbeat", telemetry.Knob{
		Help: "interval",
		Get:  func() string { return val },
		Set: func(v string) error {
			if _, err := time.ParseDuration(v); err != nil {
				return err
			}
			val = v
			return nil
		},
	})
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"heartbeat"`) || !strings.Contains(string(body), `"1s"`) {
		t.Fatalf("config GET missing knob: %s", body)
	}

	resp, err = http.PostForm(srv.URL+"/config", url.Values{"heartbeat": {"250ms"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || val != "250ms" {
		t.Fatalf("config POST = %d, val = %q, want applied 250ms", resp.StatusCode, val)
	}

	// Unknown knob names reject the whole request before applying anything.
	resp, err = http.PostForm(srv.URL+"/config", url.Values{"heartbeat": {"1h"}, "bogus": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || val != "250ms" {
		t.Fatalf("config POST with unknown knob = %d, val = %q; want 400 and unchanged", resp.StatusCode, val)
	}

	// A failing Set reports 400.
	resp, err = http.PostForm(srv.URL+"/config", url.Values{"heartbeat": {"not-a-duration"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || val != "250ms" {
		t.Fatalf("config POST with bad value = %d, val = %q; want 400 and unchanged", resp.StatusCode, val)
	}
}

func TestOpsMetricsAndHealthz(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("m_total", "x", nil).Inc()
	ops := telemetry.NewOps(reg, nil)
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	if !strings.Contains(string(body), "m_total 1") {
		t.Fatalf("metrics missing counter: %s", body)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof = %d", resp.StatusCode)
	}
}

func TestOpsStartAndClose(t *testing.T) {
	reg := telemetry.NewRegistry()
	ops := telemetry.NewOps(reg, nil)
	if err := ops.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := ops.Addr()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("get after Start: %v", err)
	}
	resp.Body.Close()
	if err := ops.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("endpoint still serving after Close")
	}
}

// TestNotifyMechanismAllocs: a session layer's mechanism event costs no
// allocation — with no observer it is a loop over an empty slice, and with
// a telemetry stage whose broker instruments are resolved it is one
// counter add.
func TestNotifyMechanismAllocs(t *testing.T) {
	b := broker.New(broker.Config{ID: "A", Send: func(message.NodeID, proto.Message) {}})
	raise := func() { b.NotifyMechanism(broker.CoreWasted, 2) }
	if n := testing.AllocsPerRun(100, raise); n != 0 {
		t.Errorf("NotifyMechanism without an observer: %.1f allocs, want 0", n)
	}
	reg := telemetry.NewRegistry()
	b.UseMiddleware(telemetry.NewMiddleware(reg))
	raise() // resolves A's instruments
	if n := testing.AllocsPerRun(100, raise); n != 0 {
		t.Errorf("NotifyMechanism into a telemetry stage: %.1f allocs, want 0", n)
	}
	// One resolving call, plus AllocsPerRun's warm-up and 100 runs.
	if got, want := reg.Total(telemetry.MechanismMetric(broker.CoreWasted)), 2.0*102; got != want {
		t.Errorf("%s = %v, want %v", telemetry.MechanismMetric(broker.CoreWasted), got, want)
	}
}
