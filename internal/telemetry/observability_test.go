package telemetry_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rebeca/internal/message"
	"rebeca/internal/telemetry"
)

func TestSamplerDeterministic(t *testing.T) {
	spans := telemetry.NewSpanStore(0)
	s := telemetry.NewSampler(spans, 8, 0)

	// Pure in the ID: repeated calls and fresh samplers agree.
	other := telemetry.NewSampler(telemetry.NewSpanStore(0), 8, 0)
	hits := 0
	for seq := uint64(0); seq < 1000; seq++ {
		id := message.NotificationID{Publisher: "alice", Seq: seq}
		v := s.Sampled(id)
		if v != s.Sampled(id) || v != other.Sampled(id) {
			t.Fatalf("Sampled(%s) not deterministic", id)
		}
		if v {
			hits++
		}
	}
	// 1-in-8 over 1000 draws: expect ~125, allow a wide band.
	if hits < 60 || hits > 250 {
		t.Fatalf("1-in-8 sampling hit %d of 1000, want roughly 125", hits)
	}

	// n <= 1 traces everything; SetRate applies live.
	s.SetRate(1)
	for seq := uint64(0); seq < 50; seq++ {
		if !s.Sampled(message.NotificationID{Publisher: "bob", Seq: seq}) {
			t.Fatal("rate 1 must sample everything")
		}
	}
	if s.Rate() != 1 {
		t.Fatalf("Rate = %d, want 1", s.Rate())
	}
}

func TestSamplerRetroCapture(t *testing.T) {
	spans := telemetry.NewSpanStore(0)
	s := telemetry.NewSampler(spans, 1<<30, 20*time.Millisecond)

	slow := message.NotificationID{Publisher: "alice", Seq: 1}
	s.Observe(slow, message.HopStamp{Broker: "A", At: time.Unix(0, 1)})
	s.Observe(slow, message.HopStamp{Broker: "B", At: time.Unix(0, 2)})

	if s.SlowerThan(5 * time.Millisecond) {
		t.Fatal("5ms is under the 20ms threshold")
	}
	if !s.SlowerThan(50 * time.Millisecond) {
		t.Fatal("50ms crosses the 20ms threshold")
	}

	// Before the verdict, nothing is retained.
	if _, ok := spans.GetSpan(slow); ok {
		t.Fatal("unsampled span retained before promotion")
	}
	s.MarkSlow(slow, 50*time.Millisecond)
	span, ok := spans.GetSpan(slow)
	if !ok || len(span.Path) != 2 || span.Reason != "slow" || span.Latency != 50*time.Millisecond {
		t.Fatalf("promoted span = %+v ok=%v, want 2 parked hops, reason slow, 50ms", span, ok)
	}

	dropped := message.NotificationID{Publisher: "alice", Seq: 2}
	s.Observe(dropped, message.HopStamp{Broker: "A", At: time.Unix(0, 3)})
	s.MarkDropped(dropped, "rate-limited")
	if span, ok := spans.GetSpan(dropped); !ok || span.Reason != "rate-limited" || len(span.Path) != 1 {
		t.Fatalf("dropped span = %+v ok=%v, want 1 hop with reason", span, ok)
	}

	retro := s.RetroCounts()
	if retro["slow"] != 1 || retro["rate-limited"] != 1 {
		t.Fatalf("RetroCounts = %v, want slow:1 rate-limited:1", retro)
	}
}

func TestSamplerPendingRingBound(t *testing.T) {
	s := telemetry.NewSampler(telemetry.NewSpanStore(0), 1<<30, time.Millisecond)
	for seq := uint64(0); seq < uint64(telemetry.DefaultPendingCap)+10; seq++ {
		s.Observe(message.NotificationID{Publisher: "p", Seq: seq},
			message.HopStamp{Broker: "A", At: time.Unix(0, 1)})
	}
	if s.PendingLen() != telemetry.DefaultPendingCap {
		t.Fatalf("pending = %d, want bounded at %d", s.PendingLen(), telemetry.DefaultPendingCap)
	}
	if s.PendingDropped() != 10 {
		t.Fatalf("dropped = %d, want 10", s.PendingDropped())
	}
}

func TestLoggerSubsystemGates(t *testing.T) {
	var buf bytes.Buffer
	l := telemetry.NewLogger(&buf, telemetry.ParseLevelDefault("info"))

	ov := l.For("overlay")
	ov.Debug("hidden")
	ov.Info("link established", "peer", "B")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug leaked through an info gate:\n%s", out)
	}
	if !strings.Contains(out, "link established") || !strings.Contains(out, "subsystem=overlay") {
		t.Fatalf("info line missing or untagged:\n%s", out)
	}

	// Raising one subsystem's gate is live on already-handed-out loggers
	// and leaves the others untouched.
	if err := l.SetLevel("overlay", telemetry.ParseLevelDefault("debug")); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	ov.Debug("now visible")
	l.For("store").Debug("still hidden")
	out = buf.String()
	if !strings.Contains(out, "now visible") || strings.Contains(out, "still hidden") {
		t.Fatalf("per-subsystem gating wrong:\n%s", out)
	}

	if err := l.SetLevel("nonesuch", telemetry.ParseLevelDefault("debug")); err == nil {
		t.Fatal("unknown subsystem must be rejected")
	}
}

func TestLogKnobsLiveViaConfig(t *testing.T) {
	var buf bytes.Buffer
	l := telemetry.NewLogger(&buf, telemetry.ParseLevelDefault("info"))
	reg := telemetry.NewRegistry()
	ops := telemetry.NewOps(reg, nil)
	l.RegisterKnobs(ops)
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	// GET /config lists one knob per subsystem.
	resp, err := http.Get(srv.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, sub := range telemetry.LogSubsystems {
		if !strings.Contains(string(listing), "log."+sub) {
			t.Fatalf("/config missing log.%s:\n%s", sub, listing)
		}
	}

	// POST retunes the gate on the live logger.
	resp, err = http.PostForm(srv.URL+"/config", url.Values{"log.discovery": {"debug"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /config = %d, want 200", resp.StatusCode)
	}
	l.For("discovery").Debug("membership detail")
	if !strings.Contains(buf.String(), "membership detail") {
		t.Fatal("knob did not open the discovery debug gate")
	}

	// Bad level values are rejected, applying nothing.
	resp, err = http.PostForm(srv.URL+"/config", url.Values{"log.discovery": {"loud"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level = %d, want 400", resp.StatusCode)
	}
}

func TestExemplarRendering(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("rebeca_e2e_latency_seconds", "Latency.", telemetry.LatencyBuckets, nil)
	h.ObserveExemplar(0.0003, "alice#1")
	h.ObserveExemplar(0.0004, "alice#2") // same le=0.0005 bucket, worse: replaces alice#1

	// The plain scrape stays strict 0.0.4 — no trailers.
	var plain strings.Builder
	if err := reg.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# {") {
		t.Fatalf("plain scrape leaked exemplar trailers:\n%s", plain.String())
	}

	// The exemplars view carries the worst note per bucket.
	var ex strings.Builder
	if err := reg.WritePrometheusExemplars(&ex); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), `# {note="alice#2"} 0.0004`) {
		t.Fatalf("exemplars view missing worst-note trailer:\n%s", ex.String())
	}
	if strings.Contains(ex.String(), "alice#1") {
		t.Fatalf("superseded exemplar survived:\n%s", ex.String())
	}

	// Rendering consumed the window.
	var again strings.Builder
	if err := reg.WritePrometheusExemplars(&again); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(again.String(), "alice#2") {
		t.Fatalf("exemplar window not reset by render:\n%s", again.String())
	}
}

func TestOpsMetricsExemplarsQuery(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("rebeca_e2e_latency_seconds", "Latency.", telemetry.LatencyBuckets, nil)
	h.ObserveExemplar(0.0002, "alice#1")
	ops := telemetry.NewOps(reg, telemetry.NewSpanStore(0))
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get("/metrics"); strings.Contains(body, "# {") {
		t.Fatalf("plain /metrics leaked exemplars:\n%s", body)
	}
	if body := get("/metrics?exemplars=1"); !strings.Contains(body, `note="alice#1"`) {
		t.Fatalf("/metrics?exemplars=1 missing exemplar:\n%s", body)
	}
}

func BenchmarkWritePrometheus1k(b *testing.B) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 1000; i++ {
		reg.Counter(fmt.Sprintf("rebeca_bench_family_%04d_total", i), "Bench family.",
			telemetry.Labels{"broker": "A"}).Add(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
