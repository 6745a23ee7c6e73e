package client

import (
	"encoding/binary"

	"rebeca/internal/message"
	"rebeca/internal/store"
)

// PubSeqQuantum is how many sequence numbers a PubSequencer reserves per
// store write: the snapshot is updated once per quantum instead of once
// per publish, and a restart skips at most one quantum of unused numbers.
const PubSeqQuantum = 256

// The persisted publisher identity under "pub/<client>" is two uvarints:
// the epoch, which counts the publisher's incarnations (diagnostics: how
// often this identity was resumed), and the reserved ceiling, the highest
// sequence number this incarnation may have assigned — the next
// incarnation resumes strictly above it.

// PubSequencer allocates a publisher's notification sequence numbers
// against a persisted identity, so a restarted publisher continues its
// (publisher, seq) ID space monotonically instead of restarting at 1 —
// which would make every subscriber's dedup window silently swallow the new
// notifications as replays of the old ones.
//
// Sequence reservation amortizes durability: the snapshot stores a
// reserved ceiling, bumped a quantum at a time; a crash wastes at most
// the unused remainder (subscriber FIFO accounting tolerates gaps —
// sequences must only grow).
//
// Not safe for concurrent use; callers serialize (a Client calls it under
// its publish lock).
type PubSequencer struct {
	st       store.Store
	key      string
	epoch    uint64
	seq      uint64
	reserved uint64
}

// NewPubSequencer loads (or creates) the client's publisher identity
// from the store's snapshot namespace and starts a new epoch above
// everything the previous incarnation may have used.
func NewPubSequencer(st store.Store, client message.NodeID) *PubSequencer {
	s := &PubSequencer{st: st, key: "pub/" + string(client)}
	if blob, ok := st.LoadSnapshot(s.key); ok {
		epoch, n := binary.Uvarint(blob)
		reserved, k := binary.Uvarint(blob[max(n, 0):])
		if n > 0 && k > 0 && n+k == len(blob) {
			s.epoch = epoch
			s.seq = reserved
			s.reserved = reserved
		}
	}
	s.epoch++
	s.persist()
	return s
}

// Epoch returns the identity's incarnation count (1 for a fresh one).
func (s *PubSequencer) Epoch() uint64 { return s.epoch }

// Last returns the last assigned sequence number.
func (s *PubSequencer) Last() uint64 { return s.seq }

// Next assigns the next sequence number, extending the persisted
// reservation when the current one runs out.
func (s *PubSequencer) Next() uint64 {
	s.seq++
	if s.seq > s.reserved {
		s.reserved = s.seq + PubSeqQuantum - 1
		s.persist()
	}
	return s.seq
}

func (s *PubSequencer) persist() {
	blob := binary.AppendUvarint(nil, s.epoch)
	_ = s.st.Snapshot(s.key, binary.AppendUvarint(blob, s.reserved))
}
