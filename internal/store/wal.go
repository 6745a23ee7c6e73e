package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rebeca/internal/codec"
	"rebeca/internal/message"
)

// DefaultSegmentSize is the rotation threshold for WAL segment files.
const DefaultSegmentSize = 4 << 20 // 4 MiB

// segHeader opens every segment: a magic and a format byte. The format
// byte versions the record encoding (record.go); a file that does not
// start with the magic was not written by this code and is refused.
var segHeader = []byte{'R', 'B', 'W', 'L', 1}

// frameHeader is the length + CRC in front of every record.
const frameHeader = 8

// WAL is the file-backed Store: an append-only log of CRC-framed records
// in the binary codec's encoding (record.go), split into rotating segment
// files (wal-<n>.seg). Every record is fsynced before Append returns
// (unless WALNoSync), so a killed process loses nothing it acknowledged.
// Compact rewrites the live state (pending records, watermarks, snapshots)
// into a fresh segment and deletes the older ones — the ack-driven garbage
// collection that keeps cancelled durable subscriptions from pinning
// segments forever.
//
// Segment format, little-endian:
//
//	"RBWL" format:byte
//	{ [4B payload length][4B IEEE CRC-32 of payload][payload] }
//
// Recovery reads segments in order and tells three failures apart. Torn: a
// frame cut short, longer than what is left of the file, or failing its
// CRC is an interrupted write — in the newest segment recovery stops there
// and truncates the file to the last good frame (a newest segment shorter
// than its header is a torn create and is rewritten); in an older segment
// it is data loss and an error. Corrupt: a payload that passes its CRC but
// does not decode was written wrong, not torn, and is an error in any
// segment. Foreign: a segment without the header — the gob segments of
// earlier builds — is an error naming the file. No error path modifies a
// file.
type WAL struct {
	index
	dir    string
	maxSeg int64
	sync   bool

	seg     *os.File // active segment, opened for append
	segID   int
	segSize int64
	buf     []byte // frame scratch, reused under mu
	closed  bool

	// log receives structured segment lifecycle events (rotation,
	// compaction); nil stays silent.
	log *slog.Logger
}

var _ Store = (*WAL)(nil)

// SetLogger attaches a structured logger for WAL segment lifecycle
// events (nil detaches).
func (w *WAL) SetLogger(l *slog.Logger) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log = l
}

// WALOption configures OpenWAL.
type WALOption func(*WAL)

// WALSegmentSize sets the segment rotation threshold in bytes.
func WALSegmentSize(n int64) WALOption {
	return func(w *WAL) {
		if n > 0 {
			w.maxSeg = n
		}
	}
}

// WALNoSync disables the per-append fsync (benchmarks; a crash may lose
// the unsynced tail).
func WALNoSync() WALOption {
	return func(w *WAL) { w.sync = false }
}

// OpenWAL opens (creating if needed) a write-ahead log in dir and recovers
// its state from the existing segments.
func OpenWAL(dir string, opts ...WALOption) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	w := &WAL{dir: dir, maxSeg: DefaultSegmentSize, sync: true}
	w.reset()
	for _, o := range opts {
		o(w)
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir returns the WAL's directory.
func (w *WAL) Dir() string { return w.dir }

func segName(id int) string { return fmt.Sprintf("wal-%06d.seg", id) }

// segments lists existing segment IDs in ascending order.
func (w *WAL) segments() ([]int, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range ents {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// recover replays all segments into the in-memory index and opens the
// newest one for append.
func (w *WAL) recover() error {
	ids, err := w.segments()
	if err != nil {
		return fmt.Errorf("store: scan wal dir: %w", err)
	}
	if len(ids) == 0 {
		return w.openSegment(1)
	}
	for i, id := range ids {
		last := i == len(ids)-1
		if err := w.replaySegment(id, last); err != nil {
			return err
		}
	}
	w.segID = ids[len(ids)-1]
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.segID)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return err
	}
	w.seg = f
	w.segSize = st.Size()
	return nil
}

// replaySegment folds one segment into the index; the WAL type comment
// says what it treats as torn, corrupt and foreign.
func (w *WAL) replaySegment(id int, last bool) error {
	name := segName(id)
	path := filepath.Join(w.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch {
	case len(data) < len(segHeader) && last:
		return os.WriteFile(path, segHeader, 0o644)
	case len(data) < len(segHeader):
		return fmt.Errorf("store: %s: segment shorter than its header", name)
	case !bytes.HasPrefix(data, segHeader[:4]):
		return fmt.Errorf("store: %s: no segment header: written by a pre-codec build, whose gob records this build does not read", name)
	case data[4] != segHeader[4]:
		return fmt.Errorf("store: %s: unknown segment format %d", name, data[4])
	}
	for off := len(segHeader); off < len(data); {
		payload, torn := splitFrame(data[off:])
		if torn != "" {
			if last {
				return os.Truncate(path, int64(off))
			}
			return fmt.Errorf("store: %s: %s at %d", name, torn, off)
		}
		o, err := decodeOp(payload)
		if err != nil {
			return fmt.Errorf("store: %s: undecodable record at %d: %w", name, off, err)
		}
		w.fold(&o)
		off += frameHeader + len(payload)
	}
	return nil
}

// splitFrame returns the payload of the frame rest starts with, or, as
// torn, what an interrupted write left wrong with it.
func splitFrame(rest []byte) (payload []byte, torn string) {
	if len(rest) < frameHeader {
		return nil, "torn frame header"
	}
	// The length is whatever the disk holds: bound it before using it.
	length := binary.LittleEndian.Uint32(rest)
	if length > codec.MaxFrame || int(length) > len(rest)-frameHeader {
		return nil, "torn frame body"
	}
	payload = rest[frameHeader : frameHeader+length]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
		return nil, "CRC mismatch"
	}
	return payload, ""
}

// openSegment creates segment id, header first, and makes it current.
func (w *WAL) openSegment(id int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(id)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	if _, err := f.Write(segHeader); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: open segment: %w", err)
	}
	w.seg = f
	w.segID = id
	w.segSize = int64(len(segHeader))
	return nil
}

// write frames one record into the scratch buffer, hands it to the segment
// in one Write and (optionally) fsyncs, rotating the segment when it
// outgrows the threshold. Callers hold w.mu.
func (w *WAL) write(o *op) error {
	if w.closed {
		return errors.New("store: wal is closed")
	}
	var hdr [frameHeader]byte
	b := appendOp(append(w.buf[:0], hdr[:]...), o)
	w.buf = b
	payload := b[frameHeader:]
	if len(payload) > codec.MaxFrame {
		// Recovery reads a longer length as a torn frame; never write one.
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", len(payload), codec.MaxFrame)
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.seg.Write(b); err != nil {
		return err
	}
	w.segSize += int64(len(b))
	if w.sync {
		if err := w.seg.Sync(); err != nil {
			return err
		}
	}
	if w.segSize >= w.maxSeg {
		full, fullSize := w.segID, w.segSize
		if err := w.seg.Close(); err != nil {
			return err
		}
		if err := w.openSegment(w.segID + 1); err != nil {
			return err
		}
		if w.log != nil {
			w.log.Info("wal segment rotated", "dir", w.dir, "segment", full,
				"bytes", fullSize, "next", w.segID)
		}
	}
	return nil
}

// Append implements Store.
func (w *WAL) Append(queue string, n message.Notification, at time.Time) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := op{kind: opAppend, name: queue, seq: w.queue(queue).next, at: at, note: n}
	if err := w.write(&o); err != nil {
		return 0, err
	}
	w.fold(&o)
	return o.seq, nil
}

// Ack implements Store.
func (w *WAL) Ack(queue string, upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.queues[queue]; !ok {
		return nil
	}
	o := op{kind: opAck, name: queue, upTo: upTo}
	if err := w.write(&o); err != nil {
		return err
	}
	w.fold(&o)
	return nil
}

// Snapshot implements Store.
func (w *WAL) Snapshot(key string, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := op{kind: opSnapshot, name: key, data: data}
	if err := w.write(&o); err != nil {
		return err
	}
	w.fold(&o)
	return nil
}

// Compact implements Store: the live state is rewritten into a fresh
// segment (fsynced before it becomes current) and every older segment is
// deleted.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal is closed")
	}
	oldID := w.segID
	if err := w.seg.Close(); err != nil {
		return err
	}
	if err := w.openSegment(oldID + 1); err != nil {
		return err
	}
	live := w.live()
	for i := range live {
		if err := w.write(&live[i]); err != nil {
			return err
		}
	}
	if err := w.seg.Sync(); err != nil {
		return err
	}
	// The rewrite is durable; the old segments are garbage.
	ids, err := w.segments()
	if err != nil {
		return err
	}
	removed := 0
	for _, id := range ids {
		if id <= oldID {
			if err := os.Remove(filepath.Join(w.dir, segName(id))); err != nil {
				return err
			}
			removed++
		}
	}
	if w.log != nil {
		w.log.Info("wal compacted", "dir", w.dir, "segments_removed", removed,
			"segment", w.segID, "bytes", w.segSize)
	}
	return nil
}

// Sync implements Store.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.seg == nil {
		return nil
	}
	return w.seg.Sync()
}

// Close implements Store.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.seg == nil {
		return nil
	}
	if err := w.seg.Sync(); err != nil {
		_ = w.seg.Close()
		return err
	}
	return w.seg.Close()
}

// SegmentCount reports how many segment files exist (compaction tests).
func (w *WAL) SegmentCount() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids, err := w.segments()
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

// WALStats summarizes the log's on-disk footprint (the telemetry
// registry's WAL collectors scrape it).
type WALStats struct {
	// Segments is the number of segment files.
	Segments int
	// Bytes is their total size.
	Bytes int64
}

// Stats reports the log's segment count and total on-disk bytes.
func (w *WAL) Stats() (WALStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids, err := w.segments()
	if err != nil {
		return WALStats{}, err
	}
	s := WALStats{Segments: len(ids)}
	for _, id := range ids {
		st, err := os.Stat(filepath.Join(w.dir, segName(id)))
		if err != nil {
			continue // racing a compaction's deletion; skip
		}
		s.Bytes += st.Size()
	}
	return s, nil
}
