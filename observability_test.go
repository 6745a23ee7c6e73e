package rebeca_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rebeca"
)

// syncWriter is a goroutine-safe log sink for WithLogging in tests.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestTraceSamplingSimLine drives the sampling tentpole on a 3-broker
// virtual-clock line: a prohibitive 1-in-N rate retains nothing, a slow
// threshold retro-captures the full parked hop path anyway, and retuning
// the rate to 1 via /config restores complete traces.
func TestTraceSamplingSimLine(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	sys, err := rebeca.New(
		rebeca.WithMovement(g),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithTraceSampling(1<<30, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.OpsAddr()

	sub := sys.NewClient("carol")
	if err := sub.Connect("C"); err != nil {
		t.Fatal(err)
	}
	s := sub.Subscribe(rebeca.NewFilter())
	defer s.Cancel()
	pub := sys.NewClient("alice")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	for i := 0; i < 20; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle()

	// 1-in-2^30: none of the 20 notes won the roll, so nothing is retained.
	var listing struct {
		Retained int `json:"retained"`
	}
	code, body := opsGet(t, addr, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Retained != 0 {
		t.Fatalf("retained = %d under a prohibitive sampling rate, want 0", listing.Retained)
	}

	// The sample knob renders and retunes live.
	code, body = opsGet(t, addr, "/config")
	if code != http.StatusOK || !strings.Contains(body, `"sample"`) || !strings.Contains(body, `"slow"`) {
		t.Fatalf("/config missing sampling knobs: %s", body)
	}
	resp, err := http.PostForm("http://"+addr+"/config", url.Values{"sample": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config POST = %d", resp.StatusCode)
	}

	noteID, err := pub.Publish(map[string]rebeca.Value{"kind": rebeca.String("sampled")})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	// Rate 1 restores the full A→B→C trail.
	var tr struct {
		Hops []struct {
			Broker string `json:"broker"`
		} `json:"hops"`
	}
	code, body = opsGet(t, addr, "/trace?note="+url.QueryEscape(noteID.String()))
	if code != http.StatusOK {
		t.Fatalf("/trace?note = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Hops) != 3 || tr.Hops[0].Broker != "A" || tr.Hops[2].Broker != "C" {
		t.Fatalf("sampled trace = %+v, want the A,B,C path", tr.Hops)
	}

	// The sampled counter moved.
	_, metrics := opsGet(t, addr, "/metrics")
	if !strings.Contains(metrics, "rebeca_trace_sampled_total") {
		t.Fatalf("metrics missing rebeca_trace_sampled_total:\n%s", grepLines(metrics, "rebeca_trace"))
	}
}

// TestTraceSlowRetroCapture: unsampled notifications whose delivery
// crosses the slow threshold are retro-captured with their complete
// parked hop path and the "slow" reason.
func TestTraceSlowRetroCapture(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B").AddEdge("B", "C")
	sys, err := rebeca.New(
		rebeca.WithMovement(g),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithLinkLatency(10*time.Millisecond),
		rebeca.WithTraceSampling(1<<30, time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.OpsAddr()

	sub := sys.NewClient("carol")
	if err := sub.Connect("C"); err != nil {
		t.Fatal(err)
	}
	s := sub.Subscribe(rebeca.NewFilter())
	defer s.Cancel()
	pub := sys.NewClient("alice")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	noteID, err := pub.Publish(map[string]rebeca.Value{"kind": rebeca.String("slowpoke")})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	// 2×10ms of simulated link latency crosses the 1ms threshold: the
	// unsampled note is promoted with its full trail and tagged slow.
	var tr struct {
		Hops []struct {
			Broker string `json:"broker"`
		} `json:"hops"`
		LatencyMS float64 `json:"latency_ms"`
		Reason    string  `json:"reason"`
	}
	code, body := opsGet(t, addr, "/trace?note="+url.QueryEscape(noteID.String()))
	if code != http.StatusOK {
		t.Fatalf("/trace?note = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Reason != "slow" {
		t.Fatalf("reason = %q, want slow (%s)", tr.Reason, body)
	}
	if len(tr.Hops) != 3 {
		t.Fatalf("retro-captured path = %+v, want all 3 hops", tr.Hops)
	}
	if tr.LatencyMS < 15 {
		t.Fatalf("latency_ms = %v, want >= 15 (two 10ms hops)", tr.LatencyMS)
	}

	// The retro counter carries the reason.
	_, metrics := opsGet(t, addr, "/metrics")
	if !strings.Contains(metrics, `rebeca_trace_retro_total{reason="slow"} 1`) {
		t.Fatalf("retro counter missing:\n%s", grepLines(metrics, "rebeca_trace_retro"))
	}
}

// TestRateLimitedDropRetroCapture: rejected publishes always earn a
// reason-tagged span, sampled or not.
func TestRateLimitedDropRetroCapture(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	limiter := rebeca.NewRateLimiter(0.0001, 1)
	sys, err := rebeca.New(
		rebeca.WithMovement(g),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithMiddleware(limiter),
		rebeca.WithTraceSampling(1<<30, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.OpsAddr()

	pub := sys.NewClient("alice")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	// Burst 1: the second publish is rejected at admission.
	for i := 0; i < 2; i++ {
		if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle()

	var listing struct {
		Spans []struct {
			Note   string `json:"note"`
			Reason string `json:"reason"`
		} `json:"spans"`
	}
	code, body := opsGet(t, addr, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range listing.Spans {
		if sp.Reason == "rate-limited" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rate-limited span in listing: %s", body)
	}
}

// TestLoggingKnobsLive: WithLogging emits subsystem-tagged slog lines and
// the /config log.* knobs retune verbosity at runtime.
func TestLoggingKnobsLive(t *testing.T) {
	var sink syncWriter
	g := rebeca.NewGraph().AddEdge("A", "B")
	sys, err := rebeca.New(
		rebeca.WithMovement(g),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithHeartbeat(50*time.Millisecond, 200*time.Millisecond),
		rebeca.WithLogging(&sink, "info"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.OpsAddr()
	sys.Settle()

	// Overlay establishment logged at info, tagged with its subsystem.
	out := sink.String()
	if !strings.Contains(out, "link established") || !strings.Contains(out, "subsystem=overlay") {
		t.Fatalf("overlay establishment not logged:\n%s", out)
	}

	// One knob per subsystem on /config.
	code, body := opsGet(t, addr, "/config")
	if code != http.StatusOK {
		t.Fatalf("/config = %d", code)
	}
	for _, sub := range []string{"log.broker", "log.discovery", "log.overlay", "log.store", "log.wire"} {
		if !strings.Contains(body, sub) {
			t.Fatalf("/config missing %s: %s", sub, body)
		}
	}

	// Retune one gate and observe it render back.
	resp, err := http.PostForm("http://"+addr+"/config", url.Values{"log.overlay": {"error"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config POST = %d", resp.StatusCode)
	}
	code, body = opsGet(t, addr, "/config")
	if code != http.StatusOK || !strings.Contains(body, `"error"`) {
		t.Fatalf("log.overlay knob did not apply: %s", body)
	}

	// Bad levels are rejected.
	resp, err = http.PostForm("http://"+addr+"/config", url.Values{"log.overlay": {"loud"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level = %d, want 400", resp.StatusCode)
	}
}

// postKnob sets one /config knob and fails the test unless it applied.
func postKnob(t *testing.T, addr, knob, value string) {
	t.Helper()
	resp, err := http.PostForm("http://"+addr+"/config", url.Values{knob: {value}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s=%s: %s", knob, value, resp.Status)
	}
}

// TestTracePendingKnob: the trace.pending knob sizes the sampler's
// pending-decision ring at runtime (rebeca-broker's former -trace-pending
// flag). Unsampled notes park their hop paths there; past the ring's
// capacity the oldest are evicted and counted.
func TestTracePendingKnob(t *testing.T) {
	sys, err := rebeca.New(
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithTraceSampling(1<<30, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.OpsAddr()
	pub := sys.NewClient("pub")
	connect(t, pub, "B0")
	publish := func(lo, hi int) {
		t.Helper()
		for n := lo; n <= hi; n++ {
			if _, err := pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(n))}); err != nil {
				t.Fatal(err)
			}
		}
		sys.Settle()
	}
	evicted := func() float64 {
		_, body := opsGet(t, addr, "/metrics")
		return metricTotal(body, "rebeca_trace_pending_evicted_total")
	}

	publish(1, 10)
	if got := evicted(); got != 0 {
		t.Fatalf("evicted %g of 10 parked paths under the default ring", got)
	}
	postKnob(t, addr, "trace.pending", "4")
	if got := configKnobs(t, addr)["trace.pending"]; got != "4" {
		t.Fatalf("trace.pending reads %q after POST 4", got)
	}
	// Shrinking to 4 evicts the 6 oldest paths; each of 10 more unsampled
	// notes then evicts one.
	publish(11, 20)
	if got := evicted(); got != 16 {
		t.Errorf("evicted = %g, want 16", got)
	}
}

// TestLogOverlayKnobQuietsLinkTransitions: log.overlay=warn (what
// rebeca-broker's former -link-log=false did) silences the overlay's
// routine link transitions at runtime.
func TestLogOverlayKnobQuietsLinkTransitions(t *testing.T) {
	var sink syncWriter
	sys, err := rebeca.New(
		rebeca.WithMovement(rebeca.Line(2)),
		rebeca.WithOps("127.0.0.1:0"),
		rebeca.WithHeartbeat(50*time.Millisecond, 200*time.Millisecond),
		rebeca.WithLogging(&sink, "info"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Settle()
	// cycle cuts and heals the link and counts the overlay info lines it
	// wrote.
	cycle := func() int {
		t.Helper()
		from := len(sink.String())
		if err := sys.CutLink("B0", "B1"); err != nil {
			t.Fatal(err)
		}
		sys.Step(500 * time.Millisecond)
		if err := sys.HealLink("B0", "B1"); err != nil {
			t.Fatal(err)
		}
		sys.Step(2 * time.Second)
		sys.Settle()
		if st := sys.LinkStates("B0")["B1"]; st != rebeca.LinkEstablished {
			t.Fatalf("link not re-established after heal: %s", st)
		}
		n := 0
		for _, line := range strings.Split(sink.String()[from:], "\n") {
			if strings.Contains(line, "level=INFO") && strings.Contains(line, "subsystem=overlay") {
				n++
			}
		}
		return n
	}
	if n := cycle(); n == 0 {
		t.Fatalf("a cut/heal cycle at info wrote no overlay info lines:\n%s", sink.String())
	}
	postKnob(t, sys.OpsAddr(), "log.overlay", "warn")
	if n := cycle(); n != 0 {
		t.Errorf("log.overlay=warn: a cut/heal cycle still wrote %d overlay info lines", n)
	}
}
