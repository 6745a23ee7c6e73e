package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rebeca/internal/message"
)

func reopen(t *testing.T, dir string, opts ...WALOption) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

func TestWALReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	for i := uint64(1); i <= 8; i++ {
		if _, err := w.Append("q", note("p", i), t0); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Ack("q", 5)
	_ = w.Snapshot("mob/B1/alice", []byte("profile"))
	// No graceful close: reopening must recover from the raw files alone.
	w2 := reopen(t, dir)
	rs, _ := w2.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 3 || got[0] != 6 || got[2] != 8 {
		t.Fatalf("recovered replay: %v", got)
	}
	if b, ok := w2.LoadSnapshot("mob/B1/alice"); !ok || string(b) != "profile" {
		t.Fatalf("recovered snapshot: %q %v", b, ok)
	}
	if seq, _ := w2.Append("q", note("p", 9), t0); seq != 9 {
		t.Fatalf("recovered next seq: got %d, want 9", seq)
	}
}

func TestWALSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir, WALSegmentSize(512))
	for i := uint64(1); i <= 40; i++ {
		if _, err := w.Append("q", note("p", i), t0); err != nil {
			t.Fatal(err)
		}
	}
	n, err := w.SegmentCount()
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("expected rotation into >= 3 segments, got %d", n)
	}
	_ = w.Ack("q", 38)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := w.SegmentCount()
	if after >= n {
		t.Fatalf("compaction did not shrink segments: %d -> %d", n, after)
	}
	rs, _ := w.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 2 || got[0] != 39 {
		t.Fatalf("after compact: %v", got)
	}
	// And the compacted state survives a reopen.
	w2 := reopen(t, dir)
	rs, _ = w2.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 2 || got[1] != 40 {
		t.Fatalf("reopen after compact: %v", got)
	}
	if seq, _ := w2.Append("q", note("p", 41), t0); seq != 41 {
		t.Fatalf("seq floor lost by compaction: got %d", seq)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	for i := uint64(1); i <= 3; i++ {
		_, _ = w.Append("q", note("p", i), t0)
	}
	// Simulate a crash mid-write: append half a frame to the newest
	// segment.
	appendToFile(t, newestSegment(t, w), []byte{0xFF, 0x00, 0x00, 0x00, 0xAB})

	w2 := reopen(t, dir)
	rs, _ := w2.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 3 {
		t.Fatalf("torn tail recovery: %v", got)
	}
	// The torn bytes are gone: a fresh append lands on a clean frame
	// boundary and a further reopen sees it.
	if seq, _ := w2.Append("q", note("p", 4), t0); seq != 4 {
		t.Fatal("append after torn-tail recovery")
	}
	w3 := reopen(t, dir)
	rs, _ = w3.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 4 {
		t.Fatalf("post-truncation reopen: %v", got)
	}
}

func TestWALCorruptBodyDetected(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	for i := uint64(1); i <= 3; i++ {
		_, _ = w.Append("q", note("p", i), t0)
	}
	path := newestSegment(t, w)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file: a CRC mismatch in the tail
	// segment is treated as a torn tail — recovery keeps the good prefix.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := reopen(t, dir)
	rs, _ := w2.ReplayFrom("q", 0)
	if len(rs) >= 3 {
		t.Fatalf("corrupt record not dropped: %v", seqs(rs))
	}
	for _, r := range rs {
		if v, ok := r.Note.Get("seq"); !ok || v.IntVal() != int64(r.Seq) {
			t.Fatalf("surviving record %d corrupted: %v", r.Seq, r.Note)
		}
	}
}

func TestWALCrashMidCompactDoesNotDuplicate(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	for i := uint64(1); i <= 10; i++ {
		_, _ = w.Append("q", note("p", i), t0)
	}
	_ = w.Ack("q", 7)
	// Simulate a kill between Compact's rewrite and its old-segment
	// deletion: stash the pre-compact segments and restore them afterward,
	// so recovery sees the same appends in both the old and the compacted
	// segment.
	ids, _ := w.segments()
	saved := make(map[string][]byte)
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(dir, segName(id)))
		if err != nil {
			t.Fatal(err)
		}
		saved[segName(id)] = b
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	for name, b := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	w2 := reopen(t, dir)
	rs, _ := w2.ReplayFrom("q", 0)
	if got := seqs(rs); len(got) != 3 || got[0] != 8 || got[1] != 9 || got[2] != 10 {
		t.Fatalf("crash mid-compact replay = %v, want [8 9 10]", got)
	}
	if seq, _ := w2.Append("q", note("p", 11), t0); seq != 11 {
		t.Fatalf("next seq = %d, want 11", seq)
	}
}

func TestWALConcurrentAppends(t *testing.T) {
	w := reopen(t, t.TempDir())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			q := []string{"a", "b"}[g%2]
			for i := uint64(0); i < 50; i++ {
				if _, err := w.Append(q, note("p", i), t0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	for _, q := range []string{"a", "b"} {
		rs, _ := w.ReplayFrom(q, 0)
		if len(rs) != 100 {
			t.Fatalf("queue %s: %d records, want 100", q, len(rs))
		}
		for i, r := range rs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("queue %s: gap at %d (seq %d)", q, i, r.Seq)
			}
		}
	}
}

// newestSegment closes w and returns the path of its newest segment.
func newestSegment(t testing.TB, w *WAL) string {
	t.Helper()
	_ = w.Close()
	ids, err := w.segments()
	if err != nil || len(ids) == 0 {
		t.Fatalf("segments: %v %v", ids, err)
	}
	return filepath.Join(w.Dir(), segName(ids[len(ids)-1]))
}

func appendToFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// frame wraps a payload the way the WAL does: length, CRC-32, payload.
func frame(payload []byte) []byte {
	b := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// A frame header is bytes from disk: a torn one claiming a 2 GiB payload
// must be recognised as a torn tail before anything is allocated for it.
func TestWALOversizedLengthIsTornNotAllocated(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	for i := uint64(1); i <= 3; i++ {
		_, _ = w.Append("q", note("p", i), t0)
	}
	path := newestSegment(t, w)
	good, _ := os.Stat(path)
	appendToFile(t, path, []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w2, err := OpenWAL(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("recovery allocated %d bytes for a torn 8-byte tail", grew)
	}
	if rs, _ := w2.ReplayFrom("q", 0); len(rs) != 3 {
		t.Fatalf("good prefix not recovered: %v", seqs(rs))
	}
	if st, _ := os.Stat(path); st.Size() != good.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", st.Size(), good.Size())
	}
}

// A payload that passes its CRC was written whole: if it does not decode
// it is corruption (or another format), never a torn tail — truncating
// would silently delete it.
func TestWALUndecodablePayloadIsNotTruncated(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	_, _ = w.Append("q", note("p", 1), t0)
	path := newestSegment(t, w)
	appendToFile(t, path, frame([]byte("not a record, but intact")))
	want, _ := os.ReadFile(path)

	if w2, err := OpenWAL(dir); err == nil {
		_ = w2.Close()
		t.Error("OpenWAL accepted a CRC-valid frame it cannot decode")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("segment modified: %d bytes, was %d", len(got), len(want))
	}
}

// gobSegment is a segment exactly as the last gob build wrote it: one
// Append("q", note("p", 1), t0), CRC-framed, no segment header.
const gobSegment = "\xa1\x01\x00\x00\x86\xf8\x94\xe8f\x7f\x03\x01\x01\twalRecord\x01\xff\x80\x00\x01\t\x01\x04Kind\x01\x04\x00\x01\x05Queue\x01\f\x00\x01\x03Seq\x01\x06\x00\x01\x02At\x01\xff\x82\x00\x01\x04Note\x01\xff\x84\x00\x01\x04UpTo\x01\x06\x00\x01\x04Next\x01\x06\x00\x01\x03Key\x01\f\x00\x01\x04Data\x01\n\x00\x00\x00\x10\xff\x81\x05\x01\x01\x04Time\x01\xff\x82\x00\x00\x00F\xff\x83\x03\x01\x01\fNotification\x01\xff\x84\x00\x01\x04\x01\x02ID\x01\xff\x86\x00\x01\tPublished\x01\xff\x82\x00\x01\x05Attrs\x01\xff\x8a\x00\x01\x04Path\x01\xff\x8e\x00\x00\x002\xff\x85\x03\x01\x01\x0eNotificationID\x01\xff\x86\x00\x01\x02\x01\tPublisher\x01\f\x00\x01\x03Seq\x01\x06\x00\x00\x00)\xff\x89\x04\x01\x01\x18map[string]message.Value\x01\xff\x8a\x00\x01\f\x01\xff\x88\x00\x00\n\xff\x87\x05\x01\x02\xff\x88\x00\x00\x00!\xff\x8d\x02\x01\x01\x12[]message.HopStamp\x01\xff\x8e\x00\x01\xff\x8c\x00\x00)\xff\x8b\x03\x01\x01\bHopStamp\x01\xff\x8c\x00\x01\x02\x01\x06Broker\x01\f\x00\x01\x02At\x01\xff\x82\x00\x00\x00-\xff\x80\x01\x02\x01\x01q\x01\x01\x01\x0f\x01\x00\x00\x00\x0e\xb6\x7f\xa8@\x00\x00\x00\x00\xff\xff\x01\x01\x01\x01p\x01\x01\x00\x02\x01\x03seq\x02i1\x00\x00"

// A directory written by a gob build is refused by name and left alone.
func TestWALGobSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte(gobSegment), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir)
	if err == nil {
		_ = w.Close()
		t.Fatal("OpenWAL read a gob segment")
	}
	if !strings.Contains(err.Error(), segName(1)) {
		t.Errorf("error does not name the segment: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != gobSegment {
		t.Fatalf("gob segment modified: %d bytes, was %d", len(got), len(gobSegment))
	}
}

// A crash between creating a segment and its header reaching the disk
// leaves a short newest file; it holds no record and is started over.
func TestWALTornCreateRewritten(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir)
	_, _ = w.Append("q", note("p", 1), t0)
	_ = w.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(2)), segHeader[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := reopen(t, dir)
	if seq, err := w2.Append("q", note("p", 2), t0); err != nil || seq != 2 {
		t.Fatalf("append after torn create: seq %d, %v", seq, err)
	}
	w3 := reopen(t, dir)
	if rs, _ := w3.ReplayFrom("q", 0); len(rs) != 2 {
		t.Fatalf("after torn create: %v", seqs(rs))
	}
}

// pinnedSegment is a segment holding one append record, as recorded before
// the handover flush waves were deleted: the record's note is a KDeliver
// encoding, whose envelope keeps the waves' ID slot (the 00 before epoch).
const pinnedSegment = "5242574c0157000000697f72480101096d6f622f616c696365018080f2f2de8fb5d30e" +
	"0000091100000000037075620401154db8f57dd4a60e010773657276696365010b74656d7065726174757265" +
	"00000000000000000001024231164db8f57dd4a60e"

// TestWALSegmentBytesPinned holds the segment format to bytes recorded
// earlier, so a WAL directory written by an older build still recovers.
func TestWALSegmentBytesPinned(t *testing.T) {
	dir := t.TempDir()
	w := reopen(t, dir, WALNoSync())
	n := message.NewNotification(map[string]message.Value{"service": message.String("temperature")})
	n.ID = message.NotificationID{Publisher: "pub", Seq: 4}
	n.Published = time.Unix(0, 1055764800123456789)
	n.Path = []message.HopStamp{{Broker: "B1", At: time.Unix(0, 1055764800123456790)}}
	if _, err := w.Append("mob/alice", n, t0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != pinnedSegment {
		t.Fatalf("segment bytes moved:\n got %s\nwant %s", got, pinnedSegment)
	}
}
