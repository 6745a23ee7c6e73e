// Package store is the pluggable persistence subsystem behind durable
// subscriptions and crash-safe mobility buffers: an append-only record log
// organized into named queues, plus a small snapshot namespace for session
// metadata.
//
// The middleware appends a notification to a queue *before* attempting
// delivery and acks the queue *after* delivery (or handover) is confirmed,
// so a crash between the two redelivers rather than loses — the client
// library's dedup.Window turns that at-least-once replay into exactly-once
// delivery (per-publisher monotonic sequence numbers in every KDeliver).
//
// Two implementations ship with the package:
//
//   - Memory: a zero-dependency in-process store with injectable fsync
//     faults and a simulated Crash, used as the default and by the
//     virtual-clock deployment's recovery tests.
//   - WAL: a file-backed write-ahead log with CRC-checked records, segment
//     rotation and ack-driven compaction, used by live TCP brokers so a
//     restarted rebeca-broker recovers its sessions from disk.
//
// Stores are shared across broker event loops (one in-process deployment
// has many brokers); all implementations are safe for concurrent use.
package store

import (
	"time"

	"rebeca/internal/message"
)

// Record is one persisted notification in a queue. Seq is the queue-local
// monotonic sequence assigned by Append; At is the (virtual) arrival time,
// preserved so TTL-bounded buffer policies survive recovery.
type Record struct {
	Queue string
	Seq   uint64
	At    time.Time
	Note  message.Notification
}

// Store is the persistence interface the buffering layers plug into.
//
// Queues are named append-only logs with an ack watermark: Append adds at
// the tail, Ack moves the watermark forward, ReplayFrom reads the live
// (unacked) suffix. Snapshots are a small keyed blob namespace for session
// metadata (subscription profiles, watermarks); writing nil deletes a key.
//
// Implementations are safe for concurrent use.
type Store interface {
	// Append persists one notification at the tail of a queue and returns
	// its assigned sequence number (1-based, monotonic per queue). The
	// record must be durable — or staged for durability with a pending
	// Sync — before Append returns.
	Append(queue string, n message.Notification, at time.Time) (uint64, error)
	// ReplayFrom returns the queue's records with Seq > after, in sequence
	// order. Acked records are never returned. The slice is the caller's.
	ReplayFrom(queue string, after uint64) ([]Record, error)
	// Ack marks the queue consumed up to and including upTo; acked records
	// become garbage for Compact. Acking beyond the tail is clamped.
	Ack(queue string, upTo uint64) error
	// Snapshot persists a metadata blob under key (nil data deletes it).
	Snapshot(key string, data []byte) error
	// LoadSnapshot returns the blob stored under key.
	LoadSnapshot(key string) ([]byte, bool)
	// Snapshots returns a copy of every stored blob whose key starts with
	// prefix — the recovery enumeration.
	Snapshots(prefix string) map[string][]byte
	// Compact drops acked records and rewrites the backing storage to hold
	// only live state (pending records, watermarks, snapshots).
	Compact() error
	// Sync makes everything staged so far durable (fsync for file-backed
	// stores). Append paths that stage asynchronously call it internally.
	Sync() error
	// Close syncs and releases the store. The store must not be used after.
	Close() error
}

// QueueState summarizes one queue for tests and introspection.
type QueueState struct {
	// Next is the sequence the next Append will assign.
	Next uint64
	// Acked is the current ack watermark.
	Acked uint64
	// Pending is the number of live (unacked) records.
	Pending int
}
