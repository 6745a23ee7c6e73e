package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Flag bits of FuzzWALRecover's second argument.
const (
	fuzzOlder = 1 << iota // the bytes are an older segment, not the newest
	fuzzRaw               // the bytes are the whole file: no header is prepended
)

// healthySegment is the record area of a segment holding every op kind.
func healthySegment(t testing.TB) []byte {
	t.Helper()
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		_, _ = w.Append("q", note("p", i), t0)
	}
	_ = w.Ack("q", 2)
	_ = w.Snapshot("mob/B1/alice", []byte("profile"))
	_ = w.Snapshot("empty", []byte{})
	_ = w.Compact() // the newest segment now opens with an opQueueMeta
	_, _ = w.Append("q", note("p", 5), t0)
	_ = w.Ack("q", 3)
	_ = w.Snapshot("mob/B1/alice", nil)
	data, err := os.ReadFile(newestSegment(t, w))
	if err != nil {
		t.Fatal(err)
	}
	return data[len(segHeader):]
}

// FuzzWALRecover writes arbitrary bytes as a segment and opens the
// directory: OpenWAL must not panic, must not allocate more than a small
// multiple of what it read, must leave the file alone when it refuses it,
// and a store it does return must take an append that survives a reopen.
func FuzzWALRecover(f *testing.F) {
	good := healthySegment(f)
	f.Add(good, uint8(0))
	f.Add(good, uint8(fuzzOlder))
	// Each torn-tail shape: half a frame header, half a body, a flipped
	// byte under the CRC, a length no file could hold.
	f.Add(append(bytes.Clone(good), 0xFF, 0x00, 0x00), uint8(0))
	f.Add(good[:len(good)-3], uint8(0))
	f.Add(good[:len(good)-3], uint8(fuzzOlder))
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped, uint8(0))
	f.Add(append(bytes.Clone(good), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0), uint8(0))
	// Intact frames that are not records, and a whole gob-era file.
	f.Add(append(bytes.Clone(good), frame([]byte("not a record, but intact"))...), uint8(0))
	f.Add([]byte(gobSegment), uint8(fuzzRaw))
	f.Add(segHeader[:3], uint8(fuzzRaw))

	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		dir := t.TempDir()
		content := data
		if flags&fuzzRaw == 0 {
			content = append(bytes.Clone(segHeader), data...)
		}
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if flags&fuzzOlder != 0 {
			if err := os.WriteFile(filepath.Join(dir, segName(2)), segHeader, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := OpenWAL(dir, WALNoSync())
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(content)); grew > limit {
			t.Fatalf("OpenWAL allocated %d bytes over a %d-byte segment", grew, len(content))
		}
		if err != nil {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, content) {
				t.Fatalf("OpenWAL refused the segment (%v) but modified it", err)
			}
			return
		}
		seq, err := w.Append("fuzz", note("p", 7), t0)
		if err != nil {
			t.Fatal(err)
		}
		want := w.State("fuzz")
		_ = w.Close()
		w2, err := OpenWAL(dir, WALNoSync())
		if err != nil {
			t.Fatalf("reopen after a clean append: %v", err)
		}
		defer w2.Close()
		if got := w2.State("fuzz"); got != want {
			t.Fatalf("state after reopen: %+v, want %+v", got, want)
		}
		rs, _ := w2.ReplayFrom("fuzz", seq-1)
		if len(rs) != 1 || rs[0].Seq != seq || !sameNote(rs[0].Note, note("p", 7)) {
			t.Fatalf("appended record after reopen: %+v", rs)
		}
	})
}
