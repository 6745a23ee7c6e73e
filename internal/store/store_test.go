package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rebeca/internal/message"
)

var t0 = time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC)

func note(pub message.NodeID, seq uint64) message.Notification {
	n := message.NewNotification(map[string]message.Value{
		"seq": message.Int(int64(seq)),
	})
	n.ID = message.NotificationID{Publisher: pub, Seq: seq}
	return n
}

// each returns a fresh instance of every Store implementation.
func each(t *testing.T) map[string]Store {
	t.Helper()
	wal, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wal.Close() })
	return map[string]Store{"memory": NewMemory(), "wal": wal}
}

func seqs(rs []Record) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Seq
	}
	return out
}

func TestAppendReplayAck(t *testing.T) {
	for name, s := range each(t) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(1); i <= 5; i++ {
				seq, err := s.Append("q", note("p", i), t0)
				if err != nil {
					t.Fatal(err)
				}
				if seq != i {
					t.Fatalf("Append seq = %d, want %d", seq, i)
				}
			}
			rs, err := s.ReplayFrom("q", 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := seqs(rs); len(got) != 5 || got[0] != 1 || got[4] != 5 {
				t.Fatalf("ReplayFrom(0) = %v", got)
			}
			if rs[2].Note.ID != note("p", 3).ID {
				t.Fatalf("record 3 carries %v", rs[2].Note.ID)
			}
			if !rs[0].At.Equal(t0) {
				t.Fatalf("record time not preserved: %v", rs[0].At)
			}

			if err := s.Ack("q", 3); err != nil {
				t.Fatal(err)
			}
			rs, _ = s.ReplayFrom("q", 0)
			if got := seqs(rs); len(got) != 2 || got[0] != 4 {
				t.Fatalf("after Ack(3): %v", got)
			}
			rs, _ = s.ReplayFrom("q", 4)
			if got := seqs(rs); len(got) != 1 || got[0] != 5 {
				t.Fatalf("ReplayFrom(4) = %v", got)
			}

			// Ack beyond the tail clamps; sequences keep climbing after.
			if err := s.Ack("q", 99); err != nil {
				t.Fatal(err)
			}
			if rs, _ := s.ReplayFrom("q", 0); len(rs) != 0 {
				t.Fatalf("after Ack(99): %v", seqs(rs))
			}
			seq, _ := s.Append("q", note("p", 6), t0)
			if seq != 6 {
				t.Fatalf("post-ack Append seq = %d, want 6", seq)
			}
		})
	}
}

func TestQueuesAreIndependent(t *testing.T) {
	for name, s := range each(t) {
		t.Run(name, func(t *testing.T) {
			_, _ = s.Append("a", note("p", 1), t0)
			_, _ = s.Append("b", note("p", 1), t0)
			_, _ = s.Append("a", note("p", 2), t0)
			_ = s.Ack("a", 2)
			if rs, _ := s.ReplayFrom("a", 0); len(rs) != 0 {
				t.Fatalf("queue a: %v", seqs(rs))
			}
			if rs, _ := s.ReplayFrom("b", 0); len(rs) != 1 {
				t.Fatalf("queue b: %v", seqs(rs))
			}
		})
	}
}

func TestSnapshots(t *testing.T) {
	for name, s := range each(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Snapshot("mob/B1/alice", []byte("profile")); err != nil {
				t.Fatal(err)
			}
			_ = s.Snapshot("mob/B1/bob", []byte("x"))
			_ = s.Snapshot("repl/B1/vc", []byte("y"))
			b, ok := s.LoadSnapshot("mob/B1/alice")
			if !ok || string(b) != "profile" {
				t.Fatalf("LoadSnapshot = %q, %v", b, ok)
			}
			all := s.Snapshots("mob/B1/")
			if len(all) != 2 {
				t.Fatalf("Snapshots(mob/B1/) = %v", all)
			}
			_ = s.Snapshot("mob/B1/bob", nil) // delete
			if _, ok := s.LoadSnapshot("mob/B1/bob"); ok {
				t.Fatal("deleted snapshot still present")
			}
		})
	}
}

func TestCompactPreservesLiveState(t *testing.T) {
	for name, s := range each(t) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(1); i <= 10; i++ {
				_, _ = s.Append("q", note("p", i), t0)
			}
			_ = s.Ack("q", 7)
			_ = s.Snapshot("meta", []byte("m"))
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			rs, _ := s.ReplayFrom("q", 0)
			if got := seqs(rs); len(got) != 3 || got[0] != 8 || got[2] != 10 {
				t.Fatalf("after compact: %v", got)
			}
			if _, ok := s.LoadSnapshot("meta"); !ok {
				t.Fatal("snapshot lost in compaction")
			}
			// Sequence floor survives compaction.
			seq, _ := s.Append("q", note("p", 11), t0)
			if seq != 11 {
				t.Fatalf("post-compact Append seq = %d, want 11", seq)
			}
		})
	}
}

func TestMemoryCrashDiscardsUnsynced(t *testing.T) {
	m := NewMemory()
	_, _ = m.Append("q", note("p", 1), t0)
	_, _ = m.Append("q", note("p", 2), t0)
	// Every sync from here on fails: appends stay staged, not durable.
	m.SetSyncFault(func() error { return errors.New("disk full") })
	_, _ = m.Append("q", note("p", 3), t0)
	_ = m.Snapshot("meta", []byte("m"))
	// Visible before the crash…
	if rs, _ := m.ReplayFrom("q", 0); len(rs) != 3 {
		t.Fatalf("pre-crash: %v", seqs(rs))
	}
	m.Crash()
	// …gone after: only the synced prefix survives.
	rs, _ := m.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 2 || got[1] != 2 {
		t.Fatalf("post-crash: %v", got)
	}
	if _, ok := m.LoadSnapshot("meta"); ok {
		t.Fatal("unsynced snapshot survived the crash")
	}
}

func TestMemoryTransientFaultsCoveredByLaterSync(t *testing.T) {
	m := NewMemory()
	m.FailSyncs(3, errors.New("EIO"))
	for i := uint64(1); i <= 5; i++ {
		_, _ = m.Append("q", note("p", i), t0)
	}
	// Syncs 1–3 failed, but append 4's successful sync covers the whole
	// staged prefix: nothing is lost.
	m.Crash()
	if rs, _ := m.ReplayFrom("q", 0); len(rs) != 5 {
		t.Fatalf("after transient faults: %v", seqs(rs))
	}
}

func TestMemoryCrashAfterCompact(t *testing.T) {
	m := NewMemory()
	for i := uint64(1); i <= 6; i++ {
		_, _ = m.Append("q", note("p", i), t0)
	}
	_ = m.Ack("q", 4)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	rs, _ := m.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 2 || got[0] != 5 {
		t.Fatalf("crash after compact: %v", got)
	}
	if st := m.State("q"); st.Next != 7 || st.Acked != 4 {
		t.Fatalf("queue meta lost: %+v", st)
	}
}

// --- conformance: one op sequence, two stores ------------------------------

// randNote draws from every shape the codec must carry: all value kinds
// (NaN, empty string and the invalid zero Value included), nil and empty
// attribute maps, zero and set publication times, with and without a hop
// trail.
func randNote(r *rand.Rand) message.Notification {
	values := []message.Value{
		message.String(""), message.String("x\x00\xff"), message.Int(0), message.Int(-1 << 62),
		message.Float(math.NaN()), message.Float(math.Inf(-1)), message.Float(0.5),
		message.Bool(true), message.Bool(false), {},
	}
	var n message.Notification
	switch r.Intn(4) {
	case 0: // nil Attrs
	case 1:
		n.Attrs = map[string]message.Value{}
	default:
		n.Attrs = make(map[string]message.Value)
		for i := r.Intn(5) + 1; i > 0; i-- {
			n.Attrs[fmt.Sprintf("a%d", r.Intn(8))] = values[r.Intn(len(values))]
		}
	}
	n.ID = message.NotificationID{Publisher: message.NodeID(fmt.Sprintf("p%d", r.Intn(3))), Seq: r.Uint64() >> uint(r.Intn(64))}
	if r.Intn(2) == 0 {
		n.Published = t0.Add(time.Duration(r.Int63n(int64(time.Hour))))
	}
	for i := r.Intn(3); i > 0; i-- {
		n.Path = append(n.Path, message.HopStamp{Broker: message.NodeID(fmt.Sprintf("B%d", i)), At: t0.Add(time.Duration(i))})
	}
	return n
}

func sameNote(a, b message.Notification) bool {
	if a.ID != b.ID || !a.Published.Equal(b.Published) || len(a.Attrs) != len(b.Attrs) || len(a.Path) != len(b.Path) {
		return false
	}
	for k, v := range a.Attrs {
		// Kind plus rendering is exact for every kind and, unlike
		// Value.Equal, holds NaN equal to itself.
		if o, ok := b.Attrs[k]; !ok || v.Kind() != o.Kind() || v.String() != o.String() {
			return false
		}
	}
	for i, h := range a.Path {
		if h.Broker != b.Path[i].Broker || !h.At.Equal(b.Path[i].At) {
			return false
		}
	}
	return true
}

// introspect is Store plus the bookkeeping reader both stores have.
type introspect interface {
	Store
	State(queue string) QueueState
}

// agree fails the test unless every reader returns the same from a and b.
func agree(t *testing.T, a, b introspect, queues, keys []string, after uint64) {
	t.Helper()
	for _, q := range queues {
		if sa, sb := a.State(q), b.State(q); sa != sb {
			t.Fatalf("State(%q): %+v vs %+v", q, sa, sb)
		}
		for _, from := range []uint64{0, after} {
			ra, _ := a.ReplayFrom(q, from)
			rb, _ := b.ReplayFrom(q, from)
			if len(ra) != len(rb) {
				t.Fatalf("ReplayFrom(%q, %d): %v vs %v", q, from, seqs(ra), seqs(rb))
			}
			for i := range ra {
				if ra[i].Queue != rb[i].Queue || ra[i].Seq != rb[i].Seq || !ra[i].At.Equal(rb[i].At) || !sameNote(ra[i].Note, rb[i].Note) {
					t.Fatalf("ReplayFrom(%q, %d)[%d]:\n%+v\nvs\n%+v", q, from, i, ra[i], rb[i])
				}
			}
		}
	}
	for _, k := range keys {
		ba, oka := a.LoadSnapshot(k)
		bb, okb := b.LoadSnapshot(k)
		if oka != okb || !bytes.Equal(ba, bb) {
			t.Fatalf("LoadSnapshot(%q): %q %v vs %q %v", k, ba, oka, bb, okb)
		}
	}
	for _, prefix := range []string{"", "mob/", "mob/B1/"} {
		sa, sb := a.Snapshots(prefix), b.Snapshots(prefix)
		if len(sa) != len(sb) {
			t.Fatalf("Snapshots(%q): %v vs %v", prefix, sa, sb)
		}
		for k, v := range sa {
			if o, ok := sb[k]; !ok || !bytes.Equal(v, o) {
				t.Fatalf("Snapshots(%q)[%q]: %q vs %q %v", prefix, k, v, o, ok)
			}
		}
	}
}

// TestStoresConform drives Memory and WAL with one random op sequence —
// restarting both at random points, the WAL from its files and Memory from
// its op log — and requires every reader to agree after every step.
func TestStoresConform(t *testing.T) {
	queues := []string{"mob/B1/alice", "ovl/A/B", "", "never-used"}
	keys := []string{"mob/B1/alice", "mob/B2/bob", "pub/carol", ""}
	blobs := [][]byte{nil, {}, []byte("profile"), {0, 0xff, 0}}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			mem, wal := NewMemory(), reopen(t, dir, WALSegmentSize(1024))
			for step := 0; step < 300; step++ {
				q := queues[r.Intn(3)]
				switch r.Intn(12) {
				default:
					at := time.Time{}
					if r.Intn(4) > 0 {
						at = t0.Add(time.Duration(step) * time.Millisecond)
					}
					n := randNote(r)
					sm, _ := mem.Append(q, n, at)
					sw, err := wal.Append(q, n, at)
					if err != nil || sm != sw {
						t.Fatalf("step %d: Append seq %d vs %d, %v", step, sm, sw, err)
					}
				case 0, 1:
					upTo := uint64(r.Intn(int(mem.State(q).Next) + 2))
					_ = mem.Ack(q, upTo)
					if err := wal.Ack(q, upTo); err != nil {
						t.Fatal(err)
					}
				case 2, 3:
					k, blob := keys[r.Intn(len(keys))], blobs[r.Intn(len(blobs))]
					_ = mem.Snapshot(k, blob)
					if err := wal.Snapshot(k, blob); err != nil {
						t.Fatal(err)
					}
				case 4:
					_ = mem.Compact()
					if err := wal.Compact(); err != nil {
						t.Fatal(err)
					}
				case 5:
					if r.Intn(2) == 0 {
						_ = wal.Close() // else a kill: recover from the raw files
					}
					mem.Crash()
					wal = reopen(t, dir, WALSegmentSize(1024))
				}
				agree(t, mem, wal, queues, keys, uint64(r.Intn(8)))
			}
		})
	}
}
