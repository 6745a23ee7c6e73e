package overlay

import (
	"fmt"

	"rebeca/internal/codec"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Link spill: when a degraded link's in-memory pending queue reaches
// PendingCap, overflow spills to the configured store.Store as a
// per-link queue ("ovl/<broker>/<peer>") instead of being dropped —
// append-before-evict, so a partition is bounded by the spill's byte
// budget rather than by PendingCap's worth of traffic. The global order
// invariant is: every spilled record is older than every in-memory
// pending message (eviction moves the pending queue's head to the spill
// tail, and re-establishment drains the spill before the pending
// flush), so replay after an arbitrarily long outage is gap-free and in
// order. The spill cursor is the store's ack watermark: records are
// acked on confirmed flush, the queue is compacted on full drain, and a
// restarted broker rediscovers its backlog from the unacked suffix.
//
// Spill IO runs only on paths a healthy link never takes (eviction from
// an over-full pending queue, the re-establishment drain), so a
// deployment without WithLinkSpill — or one whose links stay up — pays
// nothing.

// DefaultSpillBudget bounds a link's spilled bytes when Config.Spill is
// set without an explicit SpillBudget.
const DefaultSpillBudget = 256 << 20 // 256 MiB

// spillAttr carries one encoded proto.Message frame inside the
// store-facing Notification wrapper. The store persists notifications in
// the same codec, whose strings are length-prefixed bytes, so the frame
// survives WAL persistence byte-exact. The wrapper exists because
// Store.Append takes a Notification, not bytes.
const spillAttr = "ovl-frame"

// spillDrainBatch bounds how many drained records are acked at once: a
// transmit failure mid-drain redelivers at most one batch (the client
// dedup layers absorb the at-least-once overlap).
const spillDrainBatch = 256

// spillState is one link's on-store overflow queue. base is the ack
// watermark (the oldest live record is base+1); sizes holds the encoded
// size of each live record, oldest first, so the byte budget is
// enforceable without re-reading the store.
type spillState struct {
	queue string
	base  uint64
	sizes []int
	bytes int64
	drops int
}

func (sp *spillState) depth() int { return len(sp.sizes) }

// spillQueue names a link's spill queue in the shared store.
func spillQueue(self, peer message.NodeID) string {
	return "ovl/" + string(self) + "/" + string(peer)
}

// encodeSpilled wraps one overlay message as a store notification: the
// codec payload encoding (no length prefix) in a single string attr.
func encodeSpilled(pm *proto.Message) (message.Notification, int) {
	frame := codec.AppendMessage(nil, pm)
	n := message.Notification{Attrs: map[string]message.Value{
		spillAttr: message.String(string(frame)),
	}}
	return n, len(frame)
}

// decodeSpilled unwraps a spilled record back into the overlay message.
func decodeSpilled(n message.Notification) (proto.Message, error) {
	v, ok := n.Attrs[spillAttr]
	if !ok {
		return proto.Message{}, fmt.Errorf("spill record without %q attr", spillAttr)
	}
	return codec.DecodeMessage([]byte(v.Str()))
}

// loadSpill discovers a link's persisted backlog — the unacked suffix a
// previous process (or a removed-and-readded peer) left behind. Called
// from AddPeer; returns nil when the store holds nothing for the link.
func (m *Manager) loadSpill(peer message.NodeID) *spillState {
	if m.cfg.Spill == nil {
		return nil
	}
	sp := &spillState{queue: spillQueue(m.cfg.Self, peer)}
	recs, err := m.cfg.Spill.ReplayFrom(sp.queue, 0)
	if err != nil || len(recs) == 0 {
		return sp
	}
	sp.base = recs[0].Seq - 1
	for _, rec := range recs {
		var sz int
		if v, ok := rec.Note.Attrs[spillAttr]; ok {
			sz = len(v.Str())
		}
		sp.sizes = append(sp.sizes, sz)
		sp.bytes += int64(sz)
	}
	return sp
}

// evictToSpillLocked moves one message (the pending queue's head — the
// oldest in-memory message, newer than everything already spilled) onto
// the link's spill queue, enforcing the byte budget by acking the
// spill's own oldest records. An append failure degrades to a counted
// drop, so a full disk behaves like the spill was never configured.
// Callers hold m.mu.
func (m *Manager) evictToSpillLocked(l *link, pm proto.Message) {
	sp := l.spill
	note, sz := encodeSpilled(&pm)
	seq, err := m.cfg.Spill.Append(sp.queue, note, m.cfg.Now())
	if err != nil {
		sp.drops++
		l.dropped++
		if lg := m.cfg.Logger; lg != nil {
			lg.Warn("link spill append failed; dropping",
				"self", m.cfg.Self, "peer", l.peer, "err", err)
		}
		return
	}
	if len(sp.sizes) == 0 {
		// First live record: anchor the watermark to the store's actual
		// sequence (the queue may have history from compacted earlier
		// outages).
		sp.base = seq - 1
	}
	sp.sizes = append(sp.sizes, sz)
	sp.bytes += int64(sz)
	// Budget: drop-oldest, same policy as the in-memory queue, counted
	// in both the spill's and the link's drop counters.
	for sp.bytes > m.cfg.SpillBudget && len(sp.sizes) > 1 {
		sp.base++
		sp.bytes -= int64(sp.sizes[0])
		sp.sizes = sp.sizes[1:]
		sp.drops++
		l.dropped++
		_ = m.cfg.Spill.Ack(sp.queue, sp.base)
	}
}

// spillPendingLocked moves the link's whole in-memory pending queue onto
// the spill (RemovePeer: the backlog survives in the store for the
// peer's possible return instead of being discarded). Callers hold m.mu.
func (m *Manager) spillPendingLocked(l *link) {
	if l.spill == nil {
		return
	}
	for _, pm := range l.pending {
		m.evictToSpillLocked(l, pm)
	}
	l.pending = nil
}

// drainSpill replays the link's spilled backlog to the peer, in order,
// acking each confirmed batch and compacting the store on a full drain.
// Called from the KSyncInstall establishment branch — after the link is
// established, before the in-memory pending flush (the spill holds the
// older messages) — on the host's event loop, so no fresh Send
// interleaves mid-drain. Returns false when a transmit failed: the link
// is already marked down and the undrained suffix stays spilled
// (at-most-one-batch redelivery on the next establishment; subscriber
// dedup absorbs it).
func (m *Manager) drainSpill(peer message.NodeID, gen uint64) bool {
	drained := 0
	for {
		m.mu.Lock()
		l := m.links[peer]
		if l == nil || m.closed || l.gen != gen || l.state != StateEstablished || l.spill == nil {
			m.mu.Unlock()
			return false
		}
		sp := l.spill
		if len(sp.sizes) == 0 {
			m.mu.Unlock()
			if drained > 0 {
				// Fully drained: the acked records are garbage — compact
				// so an outage's disk footprint is reclaimed, not carried.
				_ = m.cfg.Spill.Compact()
			}
			return true
		}
		queue, base := sp.queue, sp.base
		m.mu.Unlock()

		recs, err := m.cfg.Spill.ReplayFrom(queue, base)
		if err != nil || len(recs) == 0 {
			if err != nil {
				if lg := m.cfg.Logger; lg != nil {
					lg.Warn("link spill replay failed; backlog retained",
						"self", m.cfg.Self, "peer", peer, "err", err)
				}
				return true // keep the backlog for the next establishment
			}
			// Store and bookkeeping disagree (records pruned externally):
			// resync the in-memory view to the store's truth.
			m.mu.Lock()
			if l := m.links[peer]; l != nil && l.spill == sp {
				sp.sizes = nil
				sp.bytes = 0
			}
			m.mu.Unlock()
			return true
		}
		if len(recs) > spillDrainBatch {
			recs = recs[:spillDrainBatch]
		}
		for i, rec := range recs {
			pm, derr := decodeSpilled(rec.Note)
			if derr != nil {
				// An undecodable record (torn write survived the WAL's own
				// checks) is a counted drop; ack past it below.
				m.mu.Lock()
				if l := m.links[peer]; l != nil && l.spill == sp {
					sp.drops++
					l.dropped++
				}
				m.mu.Unlock()
				continue
			}
			if terr := m.cfg.Transmit(peer, pm); terr != nil {
				// Ack the transmitted prefix so only this batch's suffix
				// replays next time, then mark the link down.
				m.ackSpillTo(peer, sp, rec.Seq-1)
				m.LinkDown(peer, gen, fmt.Sprintf("spill flush: %v", terr))
				return false
			}
			drained = i + 1
		}
		m.ackSpillTo(peer, sp, recs[len(recs)-1].Seq)
	}
}

// ackSpillTo advances the spill's ack watermark to upTo, both in the
// store and in the in-memory bookkeeping.
func (m *Manager) ackSpillTo(peer message.NodeID, sp *spillState, upTo uint64) {
	if upTo <= sp.base {
		return
	}
	_ = m.cfg.Spill.Ack(sp.queue, upTo)
	m.mu.Lock()
	if l := m.links[peer]; l != nil && l.spill == sp {
		for sp.base < upTo && len(sp.sizes) > 0 {
			sp.base++
			sp.bytes -= int64(sp.sizes[0])
			sp.sizes = sp.sizes[1:]
		}
		if sp.base < upTo {
			sp.base = upTo
		}
	}
	m.mu.Unlock()
}
