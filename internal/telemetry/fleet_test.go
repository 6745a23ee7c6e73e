package telemetry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rebeca/internal/message"
)

func noteID(pub string, seq uint64) message.NotificationID {
	return message.NotificationID{Publisher: message.NodeID(pub), Seq: seq}
}

func hop(broker string, at time.Time) message.HopStamp {
	return message.HopStamp{Broker: message.NodeID(broker), At: at}
}

func TestSpanStoreExportSince(t *testing.T) {
	s := NewSpanStore(8)
	t0 := time.Unix(1700000000, 0)
	s.Record(noteID("p", 1), []message.HopStamp{hop("A", t0)})
	s.Record(noteID("p", 2), []message.HopStamp{hop("A", t0)})

	changes, cur := s.ExportSince(0, 0)
	if len(changes) != 2 {
		t.Fatalf("ExportSince(0) = %d changes, want 2", len(changes))
	}
	if changes[0].ID != noteID("p", 1) || changes[1].ID != noteID("p", 2) {
		t.Fatalf("changes out of mutation order: %v, %v", changes[0].ID, changes[1].ID)
	}

	// Nothing moved: the cursor holds and nothing re-exports.
	changes, cur2 := s.ExportSince(cur, 0)
	if len(changes) != 0 || cur2 != cur {
		t.Fatalf("idle ExportSince = %d changes, cursor %d -> %d", len(changes), cur, cur2)
	}

	// A grown path re-exports the full span (at-least-once, not a delta).
	s.Record(noteID("p", 1), []message.HopStamp{hop("A", t0), hop("B", t0.Add(time.Millisecond))})
	changes, cur = s.ExportSince(cur, 0)
	if len(changes) != 1 || changes[0].ID != noteID("p", 1) || len(changes[0].Span.Path) != 2 {
		t.Fatalf("after growth: changes = %+v", changes)
	}

	// An unchanged re-record is not a mutation.
	s.Record(noteID("p", 1), []message.HopStamp{hop("A", t0)})
	if changes, _ := s.ExportSince(cur, 0); len(changes) != 0 {
		t.Fatalf("shorter re-record exported %d changes, want 0", len(changes))
	}

	// Latency and reason mutations export too; max bounds the batch and
	// the cursor only advances past what was included.
	s.Observe(noteID("p", 1), 50*time.Millisecond)
	s.RecordReason(noteID("p", 2), nil, 0, "slow")
	batch, mid := s.ExportSince(cur, 1)
	if len(batch) != 1 {
		t.Fatalf("capped export = %d changes, want 1", len(batch))
	}
	rest, _ := s.ExportSince(mid, 0)
	if len(rest) != 1 {
		t.Fatalf("resumed export = %d changes, want 1", len(rest))
	}
	if batch[0].ID == rest[0].ID {
		t.Fatalf("capped export repeated %v", batch[0].ID)
	}
}

func TestSpanBatchRoundTrip(t *testing.T) {
	t0 := time.Unix(1700000000, 123456789).UTC()
	recs := []SpanExport{
		{Instance: "A", Note: "pub#7", Hops: []SpanExportHop{{Broker: "A", At: t0}, {Broker: "B", At: t0.Add(time.Millisecond)}}, LatencyMS: 1.5},
		{Instance: "B", Note: "pub#9", Reason: "rate-limited"},
	}
	body, err := EncodeSpanBatch(recs)
	if err != nil {
		t.Fatalf("EncodeSpanBatch: %v", err)
	}
	got, err := DecodeSpanBatch(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("DecodeSpanBatch: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records, want 2", len(got))
	}
	if got[0].Instance != "A" || got[0].Note != "pub#7" || len(got[0].Hops) != 2 ||
		got[0].Hops[1].Broker != "B" || !got[0].Hops[0].At.Equal(t0) || got[0].LatencyMS != 1.5 {
		t.Fatalf("record 0 mangled: %+v", got[0])
	}
	if got[1].Reason != "rate-limited" || len(got[1].Hops) != 0 {
		t.Fatalf("record 1 mangled: %+v", got[1])
	}

	// A hostile frame length stops decoding with an error, keeping the
	// records decoded before it.
	bad := append(append([]byte{}, body...), 0xFF, 0xFF, 0xFF, 0xFF)
	got, err = DecodeSpanBatch(bytes.NewReader(bad))
	if err == nil || len(got) != 2 {
		t.Fatalf("oversized frame: got %d records, err %v", len(got), err)
	}
}

func TestPusherShipsSpansAndCloseDrains(t *testing.T) {
	type push struct {
		ctype    string
		instance string
		body     []byte
	}
	var reject atomic.Bool
	got := make(chan push, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reject.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(r.Body)
		got <- push{ctype: r.Header.Get("Content-Type"), instance: r.Header.Get(InstanceHeader), body: body.Bytes()}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	reg := NewRegistry()
	reg.Counter("rebeca_publishes_total", "publishes", nil).Inc()
	spans := NewSpanStore(8)
	t0 := time.Unix(1700000000, 0)
	spans.Record(noteID("pub", 1), []message.HopStamp{hop("A", t0), hop("B", t0.Add(time.Millisecond))})

	p, err := NewPusher(reg, PusherConfig{
		URL: srv.URL, Interval: time.Hour, Instance: "A", Spans: spans, SpanBatch: 8,
	})
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	p.Flush()

	var metricSeen, spanSeen bool
	for i := 0; i < 2; i++ {
		select {
		case g := <-got:
			if g.instance != "A" {
				t.Fatalf("push without instance header: %q", g.instance)
			}
			if g.ctype == ContentTypeSpans {
				recs, err := DecodeSpanBatch(bytes.NewReader(g.body))
				if err != nil || len(recs) != 1 {
					t.Fatalf("span body: %v (%d records)", err, len(recs))
				}
				if recs[0].Note != "pub#1" || len(recs[0].Hops) != 2 || recs[0].Instance != "A" {
					t.Fatalf("span record mangled: %+v", recs[0])
				}
				spanSeen = true
			} else {
				if !bytes.Contains(g.body, []byte("rebeca_publishes_total")) {
					t.Fatalf("metric body missing counter: %s", g.body)
				}
				metricSeen = true
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pushes never arrived")
		}
	}
	if !metricSeen || !spanSeen {
		t.Fatalf("metricSeen=%v spanSeen=%v, want both", metricSeen, spanSeen)
	}
	if p.SpansShipped() != 1 {
		t.Fatalf("SpansShipped = %d, want 1", p.SpansShipped())
	}

	// An already-shipped span does not re-export on an idle cycle.
	p.Flush()
	select {
	case g := <-got:
		if g.ctype == ContentTypeSpans {
			t.Fatalf("idle cycle re-shipped spans: %s", g.body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("idle flush pushed nothing")
	}

	p.Close()
	drainChannel(got)

	// Receiver outage: the span batch spools, its failure counts on the
	// span pair, and the backoff window arms. Close must drain it anyway
	// once the receiver returns — shutdown is the last chance to ship.
	// An empty registry isolates the span path: no metric body spools
	// ahead of the batch.
	spans2 := NewSpanStore(8)
	spans2.Record(noteID("pub", 2), []message.HopStamp{hop("A", t0)})
	p2, err := NewPusher(NewRegistry(), PusherConfig{
		URL: srv.URL, Interval: time.Hour, Instance: "A", Spans: spans2,
	})
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	reject.Store(true)
	p2.Flush()
	if p2.SpanFailures() == 0 {
		t.Fatalf("SpanFailures = 0 after rejected flush")
	}
	if p2.SpoolLen() == 0 {
		t.Fatal("rejected span batch was not spooled")
	}
	reject.Store(false)
	p2.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case g := <-got:
			if g.ctype != ContentTypeSpans {
				continue
			}
			recs, err := DecodeSpanBatch(bytes.NewReader(g.body))
			if err != nil || len(recs) != 1 || recs[0].Note != "pub#2" {
				t.Fatalf("drained span body: %v %+v", err, recs)
			}
			if p2.SpansShipped() != 1 {
				t.Fatalf("SpansShipped = %d, want 1", p2.SpansShipped())
			}
			return
		case <-deadline:
			t.Fatal("Close did not drain the spooled span batch")
		}
	}
}

// drainChannel empties a push channel without blocking.
func drainChannel[T any](ch chan T) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func TestSamplerSetPendingCap(t *testing.T) {
	s := NewSampler(NewSpanStore(8), 1000, 0)
	t0 := time.Unix(1700000000, 0)
	for i := 0; i < 6; i++ {
		s.Observe(noteID("p", uint64(i)), hop("A", t0))
	}
	if s.PendingCap() != DefaultPendingCap || s.PendingLen() != 6 {
		t.Fatalf("cap=%d pending=%d, want %d/6", s.PendingCap(), s.PendingLen(), DefaultPendingCap)
	}

	// Shrinking keeps the newest entries and counts the evictions.
	s.SetPendingCap(4)
	if s.PendingCap() != 4 || s.PendingLen() != 4 {
		t.Fatalf("after shrink: cap=%d pending=%d, want 4/4", s.PendingCap(), s.PendingLen())
	}
	if s.PendingDropped() != 2 {
		t.Fatalf("PendingDropped = %d, want 2", s.PendingDropped())
	}
	// The survivors are the newest: promoting an evicted ID yields an
	// empty path, a surviving one its parked path.
	st := NewSpanStore(8)
	s2 := NewSampler(st, 1000, 0)
	for i := 0; i < 6; i++ {
		s2.Observe(noteID("p", uint64(i)), hop("A", t0))
	}
	s2.SetPendingCap(4)
	s2.MarkDropped(noteID("p", 0), "evicted-check") // oldest, evicted
	if sp, _ := st.GetSpan(noteID("p", 0)); len(sp.Path) != 0 {
		t.Fatalf("evicted pending path survived: %+v", sp.Path)
	}
	s2.MarkDropped(noteID("p", 5), "kept-check") // newest, kept
	if sp, _ := st.GetSpan(noteID("p", 5)); len(sp.Path) != 1 {
		t.Fatalf("kept pending path lost: %+v", sp.Path)
	}

	// The ring keeps filling correctly at the new capacity.
	for i := 10; i < 20; i++ {
		s.Observe(noteID("p", uint64(i)), hop("A", t0))
	}
	if s.PendingLen() != 4 {
		t.Fatalf("pending after refill = %d, want 4", s.PendingLen())
	}
	// Growing never evicts.
	before := s.PendingDropped()
	s.SetPendingCap(64)
	if s.PendingDropped() != before || s.PendingLen() != 4 {
		t.Fatalf("grow evicted: dropped %d->%d pending=%d", before, s.PendingDropped(), s.PendingLen())
	}
}
