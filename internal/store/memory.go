package store

import (
	"time"

	"rebeca/internal/message"
)

// Memory is the in-process Store: the zero-cost default, and — through its
// fault hook and Crash — the harness for recovery tests on the virtual
// clock. It models durability the way a WAL does: mutations are staged in
// an ordered op log and become durable when a Sync succeeds; Crash discards
// everything staged after the last successful Sync. Safe for concurrent
// use.
type Memory struct {
	index
	ops    []op
	synced int // ops[:synced] are durable
	faults func() error
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	m := &Memory{}
	m.reset()
	return m
}

// SetSyncFault installs a hook consulted on every Sync; a non-nil return
// fails that Sync (the staged suffix stays pending and is covered by the
// next successful Sync). Pass nil to clear.
func (m *Memory) SetSyncFault(fn func() error) {
	m.mu.Lock()
	m.faults = fn
	m.mu.Unlock()
}

// FailSyncs makes the next n Syncs fail — the canonical transient-fsync
// fault schedule used by recovery tests.
func (m *Memory) FailSyncs(n int, err error) {
	remaining := n
	m.SetSyncFault(func() error {
		if remaining <= 0 {
			return nil
		}
		remaining--
		return err
	})
}

// Crash simulates a process kill: every mutation staged after the last
// successful Sync is discarded and the live state is rebuilt from the
// durable prefix. The store remains usable (the "restarted" deployment
// reopens it).
func (m *Memory) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = m.ops[:m.synced]
	m.refold()
}

// refold rebuilds the live state from the op log.
func (m *Memory) refold() {
	m.reset()
	for i := range m.ops {
		m.fold(&m.ops[i])
	}
}

// stage logs a mutation, applies it to the live state, and attempts to
// sync it durable. A sync fault leaves the op staged: it stays visible to
// readers (the process has it in memory) but a Crash before the next
// successful Sync discards it — exactly a WAL's window.
func (m *Memory) stage(o op) error {
	m.ops = append(m.ops, o)
	m.fold(&o)
	return m.syncLocked()
}

func (m *Memory) syncLocked() error {
	if m.faults != nil {
		if err := m.faults(); err != nil {
			return err
		}
	}
	m.synced = len(m.ops)
	return nil
}

// Append implements Store. A sync fault is not an append failure: the
// record is staged and remains pending for the next Sync, so callers keep
// the at-least-once invariant without retry loops.
func (m *Memory) Append(queue string, n message.Notification, at time.Time) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.queue(queue).next
	_ = m.stage(op{kind: opAppend, name: queue, seq: seq, at: at, note: n})
	return seq, nil
}

// Ack implements Store.
func (m *Memory) Ack(queue string, upTo uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.queues[queue]; !ok {
		return nil
	}
	_ = m.stage(op{kind: opAck, name: queue, upTo: upTo})
	return nil
}

// Snapshot implements Store.
func (m *Memory) Snapshot(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data != nil {
		data = append([]byte{}, data...) // the log's own copy; stays non-nil when empty
	}
	_ = m.stage(op{kind: opSnapshot, name: key, data: data})
	return nil
}

// Compact implements Store: the op log is rewritten to the minimal set
// reproducing the live state, and the whole rewrite is marked durable
// (memory has no fsync to fail at compaction).
func (m *Memory) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Rebuild the live state from the rewritten log, so a compaction bug
	// surfaces immediately, not at the next Crash.
	m.ops = m.live()
	m.synced = len(m.ops)
	m.refold()
	return nil
}

// Sync implements Store.
func (m *Memory) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncLocked()
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncLocked()
}
