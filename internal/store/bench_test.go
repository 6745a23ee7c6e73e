package store

import (
	"testing"
	"time"
)

// appendProbe returns Append of one notification to queue "q" of s.
func appendProbe(tb testing.TB, s Store) func() {
	n := note("pub", 1)
	now := time.Now()
	return func() {
		if _, err := s.Append("q", n, now); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchAppends(b *testing.B, s Store) {
	b.Helper()
	appendOne := appendProbe(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendOne()
	}
}

func BenchmarkMemoryAppend(b *testing.B) {
	benchAppends(b, NewMemory())
}

func BenchmarkWALAppendSynced(b *testing.B) {
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	benchAppends(b, w)
}

func BenchmarkWALAppendNoSync(b *testing.B) {
	w, err := OpenWAL(b.TempDir(), WALNoSync())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	benchAppends(b, w)
}

// TestWALAppendNoSyncAllocs: an unsynced WAL append allocates nothing
// (BenchmarkWALAppendNoSync).
func TestWALAppendNoSyncAllocs(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := testing.AllocsPerRun(1000, appendProbe(t, w)); got != 0 {
		t.Errorf("WAL append without sync: %v allocs, want 0", got)
	}
}

func BenchmarkWALRecovery(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, _ = w.Append("q", note("pub", uint64(i+1)), time.Now())
	}
	_ = w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w2, err := OpenWAL(dir)
		if err != nil {
			b.Fatal(err)
		}
		if rs, _ := w2.ReplayFrom("q", 0); len(rs) != 1000 {
			b.Fatalf("recovered %d records", len(rs))
		}
		_ = w2.Close()
	}
}
