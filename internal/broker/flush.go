package broker

import (
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// StartFlush starts a flush wave from this broker and returns its ID. The
// wave propagates to every broker; each subtree acknowledges only after all
// of its children have, so — links being FIFO — every message routed by a
// table entry that existed when the wave passed has arrived before the
// final ack. FlushObserver stages receive OnFlushDone(id) when the wave
// completes.
//
// The mobility protocol uses two waves per relocation: one to barrier the
// new border's subscription propagation, one to chase stragglers behind the
// old border's unsubscription (see internal/mobility).
func (b *Broker) StartFlush() uint64 {
	b.nextFlushID++
	id := b.nextFlushID
	key := flushKey{origin: b.cfg.ID, id: id}
	peers := b.Peers()
	if len(peers) == 0 {
		b.flushDone(id)
		return id
	}
	b.flushes[key] = &flushState{pending: len(peers)}
	for _, p := range peers {
		b.Send(p, proto.Message{Kind: proto.KFlush, Origin: b.cfg.ID, FlushID: id})
	}
	return id
}

func (b *Broker) handleFlush(from message.NodeID, m proto.Message) {
	key := flushKey{origin: m.Origin, id: m.FlushID}
	var children []message.NodeID
	for _, p := range b.Peers() {
		if p != from {
			children = append(children, p)
		}
	}
	if len(children) == 0 {
		b.Send(from, proto.Message{Kind: proto.KFlushAck, Origin: m.Origin, FlushID: m.FlushID})
		return
	}
	b.flushes[key] = &flushState{pending: len(children), replyTo: from}
	for _, c := range children {
		b.Send(c, proto.Message{Kind: proto.KFlush, Origin: m.Origin, FlushID: m.FlushID})
	}
}

func (b *Broker) handleFlushAck(m proto.Message) {
	key := flushKey{origin: m.Origin, id: m.FlushID}
	st, ok := b.flushes[key]
	if !ok {
		return
	}
	st.pending--
	if st.pending > 0 {
		return
	}
	delete(b.flushes, key)
	if st.replyTo != "" {
		b.Send(st.replyTo, proto.Message{Kind: proto.KFlushAck, Origin: m.Origin, FlushID: m.FlushID})
		return
	}
	b.flushDone(m.FlushID)
}

func (b *Broker) flushDone(id uint64) {
	for _, fo := range b.flushObservers {
		fo.OnFlushDone(b, id)
	}
}
