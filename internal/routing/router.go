package routing

import (
	"bytes"
	"slices"
	"strings"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Forward is a routing decision: send the subscription (or unsubscription)
// on the given link.
type Forward struct {
	Link message.NodeID
	Sub  proto.Subscription
	// Unsub marks the forward as an unsubscription.
	Unsub bool
}

// Router augments a Table with the subscription-forwarding algorithm of the
// configured strategy. It tracks, per outgoing link, which subscriptions
// have been forwarded so that the covering optimization can suppress and
// later un-suppress propagation correctly. Those forward marks live on the
// subscription's table row, so removing the row removes its marks, on
// every link.
//
// A Router belongs to one broker and is driven from its event loop; it is
// not safe for concurrent use.
type Router struct {
	table    *Table
	strategy Strategy
	// fwd and sent are Subscribe's and Unsubscribe's scratch (see their
	// aliasing contract).
	fwd  []Forward
	sent []message.NodeID
}

// NewRouter returns a router with an empty, linear-matching table: the
// tests' reference for NewIndexedRouter, which every broker runs.
func NewRouter(s Strategy) *Router {
	return &Router{table: NewTable(), strategy: s}
}

// NewIndexedRouter returns a router whose table uses the access-predicate
// matching index — same semantics, matching cost that follows the matches,
// not the table.
func NewIndexedRouter(s Strategy) *Router {
	return &Router{table: NewIndexedTable(), strategy: s}
}

// Table exposes the underlying routing table (read-mostly access for the
// broker's matching hot path).
func (r *Router) Table() *Table { return r.table }

// Subscribe records a subscription arriving on fromLink and returns the
// forwards to emit on the broker's other links (brokerLinks excludes client
// ports; subscriptions only propagate into the overlay).
//
// A subscription re-arriving under the same ID from a *different* link is a
// relocation flip (the client moved; its new border re-issued the
// subscription): the entry migrates to the new link, and the arrival link
// loses its forward mark, since the neighbour there now routes away from
// this broker. With the filter unchanged, the flip goes only on the links
// not marked: a marked link's neighbour already routes toward this broker,
// and so toward the new border. The old arrival link is never marked, so
// the flip travels the whole path from the new border to the old one and
// stops there. A flip with a changed filter goes on every other link, and
// covering never suppresses a flip. No unsubscription is emitted — the flip
// wave is the cleanup.
//
// A subscription re-arriving unchanged (same ID, same link, same filter) is
// an idempotent re-install — the overlay's sync handshake replays installs
// on every link (re-)establishment — and is *not* re-forwarded on links it
// already went out on: downstream state is intact, and each downstream link
// runs its own replay when it flaps.
//
// The returned slice is router-owned scratch, valid until the next
// Subscribe or Unsubscribe: callers must finish with it before either can
// run again, and must not retain it. The broker only hands each forward to
// its transport, which never re-enters the router.
func (r *Router) Subscribe(sub proto.Subscription, fromLink message.NodeID, brokerLinks []message.NodeID) []Forward {
	prev, existed := r.table.Get(sub.ID)
	relocated := existed && prev.Link != fromLink
	unchanged := existed && sameFilter(prev.Sub.Filter, sub.Filter)
	slot, _ := r.table.add(sub, fromLink)
	if relocated {
		r.table.unmark(slot, fromLink)
	}
	out := r.fwd[:0]
	for _, link := range brokerLinks {
		if link == fromLink {
			continue
		}
		if unchanged && r.table.marked(slot, link) {
			continue
		}
		if !relocated && r.strategy == StrategyCovering && r.coveredOnLink(sub, link) {
			continue
		}
		r.table.mark(slot, link)
		out = append(out, Forward{Link: link, Sub: sub})
	}
	r.fwd = out
	return out
}

// sameFilter reports whether two filters have the same canonical key,
// rendering both into stack buffers.
func sameFilter(f, g filter.Filter) bool {
	var fb, gb [128]byte
	return bytes.Equal(f.AppendKey(fb[:0]), g.AppendKey(gb[:0]))
}

// Unsubscribe removes the subscription and returns the forwards to emit:
// the unsubscription itself on every link of brokerLinks it was forwarded
// on and, under covering, any previously suppressed subscriptions that are
// now uncovered. The subscription's marks on links outside brokerLinks (a
// link a mesh re-election took away) go with it.
//
// The returned slice is router-owned scratch, under Subscribe's contract.
func (r *Router) Unsubscribe(id message.SubID, brokerLinks []message.NodeID) []Forward {
	slot, ok := r.table.slotOf[id]
	if !ok {
		return nil
	}
	sent := r.sent[:0]
	for _, link := range brokerLinks {
		if r.table.marked(slot, link) {
			sent = append(sent, link)
		}
	}
	r.sent = sent
	e, _ := r.table.Remove(id)
	out := r.fwd[:0]
	for _, link := range sent {
		out = append(out, Forward{Link: link, Sub: e.Sub, Unsub: true})
		if r.strategy == StrategyCovering {
			out = r.unsuppress(out, e, link)
		}
	}
	r.fwd = out
	return out
}

// unsuppress appends to out the re-forwards on link of subscriptions that
// were covered by the removed entry and are not covered by any other
// forwarded entry, in ID order.
func (r *Router) unsuppress(out []Forward, removed Entry, link message.NodeID) []Forward {
	start := len(out)
	r.table.each(func(slot int) {
		cand := &r.table.rows[slot].entry
		if cand.Link == link || r.table.marked(slot, link) {
			return
		}
		if !removed.Sub.Filter.Covers(cand.Sub.Filter) {
			return
		}
		if r.coveredOnLink(cand.Sub, link) {
			return
		}
		r.table.mark(slot, link)
		out = append(out, Forward{Link: link, Sub: cand.Sub})
	})
	slices.SortFunc(out[start:], func(a, b Forward) int { return strings.Compare(string(a.Sub.ID), string(b.Sub.ID)) })
	return out
}

// coveredOnLink reports whether some other subscription already forwarded
// on link covers sub.
func (r *Router) coveredOnLink(sub proto.Subscription, link message.NodeID) bool {
	return r.table.anyMarked(link, sub.ID, func(e *Entry) bool { return e.Sub.Filter.Covers(sub.Filter) })
}
