package routing

import (
	"sort"

	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Forward is a routing decision: send the subscription (or unsubscription)
// on the given link.
type Forward struct {
	Link message.NodeID
	Sub  proto.Subscription
	// Unsub marks the forward as an unsubscription (or unadvertisement).
	Unsub bool
	// Advertisement marks advertisement-table traffic.
	Advertisement bool
}

// Router augments a Table with the subscription-forwarding algorithm of the
// configured strategy. It tracks, per outgoing link, which subscriptions
// have been forwarded so that the covering optimization can suppress and
// later un-suppress propagation correctly.
//
// A Router belongs to one broker and is driven from its event loop; it is
// not safe for concurrent use.
type Router struct {
	table    *Table
	strategy Strategy
	// forwarded[link][subID] records subscriptions propagated on link.
	forwarded map[message.NodeID]map[message.SubID]bool
	// advBased gates subscription forwarding on advertisement overlap.
	advBased bool
	// advs is the advertisement table (lazily created).
	advs *Table
}

// NewRouter returns a router with an empty, linear-matching table.
func NewRouter(s Strategy) *Router {
	return &Router{
		table:     NewTable(),
		strategy:  s,
		forwarded: make(map[message.NodeID]map[message.SubID]bool),
	}
}

// NewIndexedRouter returns a router whose table uses the access-predicate
// matching index — same semantics, matching cost that follows the matches,
// not the table.
func NewIndexedRouter(s Strategy) *Router {
	return &Router{
		table:     NewIndexedTable(),
		strategy:  s,
		forwarded: make(map[message.NodeID]map[message.SubID]bool),
	}
}

// Table exposes the underlying routing table (read-mostly access for the
// broker's matching hot path).
func (r *Router) Table() *Table { return r.table }

// Strategy returns the configured strategy.
func (r *Router) Strategy() Strategy { return r.strategy }

// Subscribe records a subscription arriving on fromLink and returns the
// forwards to emit on the broker's other links (brokerLinks excludes client
// ports; subscriptions only propagate into the overlay).
//
// A subscription re-arriving under the same ID from a *different* link is a
// relocation flip (the client moved; its new border re-issued the
// subscription): the entry migrates to the new link and the flip is
// forwarded unconditionally so the whole tree re-points toward the new
// border. No unsubscription is emitted — the flip wave is the cleanup.
//
// A subscription re-arriving unchanged (same ID, same link, same filter) is
// an idempotent re-install — the overlay's sync handshake replays installs
// on every link (re-)establishment — and is *not* re-forwarded on links it
// already went out on: downstream state is intact, and each downstream link
// runs its own replay when it flaps.
func (r *Router) Subscribe(sub proto.Subscription, fromLink message.NodeID, brokerLinks []message.NodeID) []Forward {
	if r.advBased {
		return r.subscribeAdvGated(sub, fromLink, brokerLinks)
	}
	prev, existed := r.table.Get(sub.ID)
	relocated := existed && prev.Link != fromLink
	unchanged := existed && !relocated && prev.Sub.Filter.Key() == sub.Filter.Key()
	r.table.Add(sub, fromLink)
	if r.strategy == StrategyFlooding {
		return nil
	}
	var out []Forward
	for _, link := range brokerLinks {
		if link == fromLink {
			continue
		}
		if unchanged && r.wasForwarded(link, sub.ID) {
			continue
		}
		if !relocated && r.strategy == StrategyCovering && r.coveredOnLink(sub, link) {
			continue
		}
		r.markForwarded(link, sub.ID)
		out = append(out, Forward{Link: link, Sub: sub})
	}
	return out
}

// Unsubscribe removes the subscription and returns the forwards to emit:
// the unsubscription itself on every link it was forwarded on and, under
// covering, any previously suppressed subscriptions that are now uncovered.
func (r *Router) Unsubscribe(id message.SubID, brokerLinks []message.NodeID) []Forward {
	e, ok := r.table.Remove(id)
	if !ok {
		return nil
	}
	var out []Forward
	for _, link := range brokerLinks {
		if !r.wasForwarded(link, id) {
			continue
		}
		delete(r.forwarded[link], id)
		out = append(out, Forward{Link: link, Sub: e.Sub, Unsub: true})
		if r.strategy == StrategyCovering {
			out = append(out, r.unsuppress(e, link)...)
		}
	}
	return out
}

// unsuppress re-forwards subscriptions on link that were covered by the
// removed entry and are not covered by any other forwarded entry.
func (r *Router) unsuppress(removed Entry, link message.NodeID) []Forward {
	var out []Forward
	for _, cand := range r.table.Entries() {
		if cand.Link == link || r.wasForwarded(link, cand.Sub.ID) {
			continue
		}
		if !removed.Sub.Filter.Covers(cand.Sub.Filter) {
			continue
		}
		if r.coveredOnLink(cand.Sub, link) {
			continue
		}
		r.markForwarded(link, cand.Sub.ID)
		out = append(out, Forward{Link: link, Sub: cand.Sub})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sub.ID < out[j].Sub.ID })
	return out
}

// coveredOnLink reports whether some other subscription already forwarded
// on link covers sub.
func (r *Router) coveredOnLink(sub proto.Subscription, link message.NodeID) bool {
	for id := range r.forwarded[link] {
		e, ok := r.table.Get(id)
		if !ok || e.Sub.ID == sub.ID {
			continue
		}
		if e.Sub.Filter.Covers(sub.Filter) {
			return true
		}
	}
	return false
}

func (r *Router) markForwarded(link message.NodeID, id message.SubID) {
	m, ok := r.forwarded[link]
	if !ok {
		m = make(map[message.SubID]bool)
		r.forwarded[link] = m
	}
	m[id] = true
}

func (r *Router) wasForwarded(link message.NodeID, id message.SubID) bool {
	return r.forwarded[link][id]
}

// ForwardedOn returns how many subscriptions are currently forwarded on the
// link — the downstream table pressure this broker causes (E3 metric).
func (r *Router) ForwardedOn(link message.NodeID) int { return len(r.forwarded[link]) }
