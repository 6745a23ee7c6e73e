package telemetry

import (
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

	changes, cur := s.ExportSince(0)
	if len(changes) != 2 {
		t.Fatalf("ExportSince(0) = %d changes, want 2", len(changes))
	}
	if changes[0].ID != noteID("p", 1) || changes[1].ID != noteID("p", 2) {
		t.Fatalf("changes out of mutation order: %v, %v", changes[0].ID, changes[1].ID)
	}

	// Nothing moved: the cursor holds and nothing re-exports.
	changes, cur2 := s.ExportSince(cur)
	if len(changes) != 0 || cur2 != cur {
		t.Fatalf("idle ExportSince = %d changes, cursor %d -> %d", len(changes), cur, cur2)
	}

	// A grown path re-exports the full span (at-least-once, not a delta).
	s.Record(noteID("p", 1), []message.HopStamp{hop("A", t0), hop("B", t0.Add(time.Millisecond))})
	changes, cur = s.ExportSince(cur)
	if len(changes) != 1 || changes[0].ID != noteID("p", 1) || len(changes[0].Span.Path) != 2 {
		t.Fatalf("after growth: changes = %+v", changes)
	}

	// An unchanged re-record is not a mutation.
	s.Record(noteID("p", 1), []message.HopStamp{hop("A", t0)})
	if changes, _ := s.ExportSince(cur); len(changes) != 0 {
		t.Fatalf("shorter re-record exported %d changes, want 0", len(changes))
	}

	// Latency and reason mutations export too, in mutation order.
	s.Observe(noteID("p", 1), 50*time.Millisecond)
	s.RecordReason(noteID("p", 2), nil, 0, "slow")
	changes, _ = s.ExportSince(cur)
	if len(changes) != 2 || changes[0].ID != noteID("p", 1) || changes[1].Span.Reason != "slow" {
		t.Fatalf("latency and reason mutations: %+v", changes)
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
