package buffer

import (
	"testing"
	"time"

	"rebeca/internal/store"
)

func TestDurableMirrorsInner(t *testing.T) {
	st := store.NewMemory()
	d := NewDurable(st, "q", NewUnbounded())
	d.Add(mkNote("p", 1, "a"), t0)
	d.Add(mkNote("p", 2, "b"), t0.Add(time.Second))
	if got := bodies(d.Snapshot(t0.Add(time.Minute))); !eqStrings(got, []string{"a", "b"}) {
		t.Fatalf("snapshot = %v", got)
	}
	if rs, _ := st.ReplayFrom("q", 0); len(rs) != 2 {
		t.Fatalf("store holds %d records, want 2", len(rs))
	}
	d.Clear()
	if rs, _ := st.ReplayFrom("q", 0); len(rs) != 0 {
		t.Fatalf("Clear did not ack: %d pending", len(rs))
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestDurableRecoversPendingIntoInner(t *testing.T) {
	st := store.NewMemory()
	d := NewDurable(st, "q", NewUnbounded())
	d.Add(mkNote("p", 1, "a"), t0)
	d.Add(mkNote("p", 2, "b"), t0)
	// A new Durable on the same queue (the restarted broker's session
	// buffer) sees the unacked records.
	d2 := NewDurable(st, "q", NewUnbounded())
	if got := bodies(d2.Snapshot(t0)); !eqStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered snapshot = %v", got)
	}
	// Clear on the recovered buffer acks the recovered records too.
	d2.Clear()
	d3 := NewDurable(st, "q", NewUnbounded())
	if d3.Len() != 0 {
		t.Fatalf("acked records recovered: %d", d3.Len())
	}
}

func TestDurableTTLAcrossRecovery(t *testing.T) {
	st := store.NewMemory()
	d := NewDurable(st, "q", NewWindow(10*time.Second, 0))
	d.Add(mkNote("p", 1, "old"), t0)
	d.Add(mkNote("p", 2, "new"), t0.Add(8*time.Second))
	// Recover 5 virtual seconds later: arrival times persisted with the
	// records keep the TTL bound exact — "old" (13s) expired, "new" (5s)
	// live.
	d2 := NewDurable(st, "q", NewWindow(10*time.Second, 0))
	if got := bodies(d2.Snapshot(t0.Add(13 * time.Second))); !eqStrings(got, []string{"new"}) {
		t.Fatalf("TTL across recovery = %v", got)
	}
}

func TestDurableEvictionDoesNotAck(t *testing.T) {
	st := store.NewMemory()
	d := NewDurable(st, "q", NewWindow(0, 2))
	for i := uint64(1); i <= 5; i++ {
		d.Add(mkNote("p", i, "x"), t0)
	}
	if d.Len() != 2 {
		t.Fatalf("inner eviction broken: %d", d.Len())
	}
	// Evicted records remain pending in the store (the memory bound is not
	// a delivery confirmation)…
	if rs, _ := st.ReplayFrom("q", 0); len(rs) != 5 {
		t.Fatalf("store pending = %d, want 5", len(rs))
	}
	// …until Clear acks the whole appended range.
	d.Clear()
	if rs, _ := st.ReplayFrom("q", 0); len(rs) != 0 {
		t.Fatalf("Clear left %d pending", len(rs))
	}
}

func TestDurableRelease(t *testing.T) {
	st := store.NewMemory()
	d := NewDurable(st, "q", NewUnbounded())
	d.Add(mkNote("p", 1, "a"), t0)
	d.Release()
	if rs, _ := st.ReplayFrom("q", 0); len(rs) != 0 {
		t.Fatal("Release left pending records")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}
