package routing

import (
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Advertisement-based routing (REBECA [3], evaluated in [16]): publishers
// announce the kinds of notifications they will publish; subscriptions are
// then forwarded only toward brokers from whose direction an overlapping
// advertisement arrived, instead of flooding the whole overlay. On a large
// network with localized publishers this prunes most of the subscription
// state.
//
// The Router keeps a second (F,L) table for advertisements. Advertisements
// themselves flood (they are typically few and long-lived); the overlap
// relation — conservative in the "may overlap" direction — gates
// subscription forwarding. A late advertisement re-triggers forwarding of
// the subscriptions it unlocks; an unadvertisement withdraws subscriptions
// that no remaining advertisement on that link justifies.

// EnableAdvertisements switches the router to advertisement-based
// subscription forwarding. Call before any subscription is processed.
func (r *Router) EnableAdvertisements() {
	r.advBased = true
	if r.advs == nil {
		r.advs = NewTable()
	}
}

// AdvTable exposes the advertisement table (tests, experiments).
func (r *Router) AdvTable() *Table {
	if r.advs == nil {
		r.advs = NewTable()
	}
	return r.advs
}

// Advertise records an advertisement arriving on fromLink and returns the
// forwards to emit: the advertisement floods to every other link, and any
// local subscriptions newly justified toward fromLink are (re)forwarded.
func (r *Router) Advertise(adv proto.Subscription, fromLink message.NodeID, brokerLinks []message.NodeID) []Forward {
	r.AdvTable().Add(adv, fromLink)
	var out []Forward
	for _, link := range brokerLinks {
		if link == fromLink {
			continue
		}
		out = append(out, Forward{Link: link, Sub: adv, Advertisement: true})
	}
	if !r.advBased {
		return out
	}
	// Unlock subscriptions toward the advertiser's direction.
	r.table.each(func(slot int) {
		e := &r.table.rows[slot].entry
		if e.Link == fromLink || r.table.marked(slot, fromLink) {
			return
		}
		if !adv.Filter.Overlaps(e.Sub.Filter) {
			return
		}
		r.table.mark(slot, fromLink)
		out = append(out, Forward{Link: fromLink, Sub: e.Sub})
	})
	return out
}

// Unadvertise withdraws an advertisement and returns the forwards to emit:
// the unadvertisement floods along the links the advertisement went, and
// subscriptions that lose their last justification toward the
// advertisement's link are unsubscribed there.
func (r *Router) Unadvertise(id message.SubID, brokerLinks []message.NodeID) []Forward {
	e, ok := r.AdvTable().Remove(id)
	if !ok {
		return nil
	}
	var out []Forward
	for _, link := range brokerLinks {
		if link == e.Link {
			continue
		}
		out = append(out, Forward{Link: link, Sub: e.Sub, Unsub: true, Advertisement: true})
	}
	if !r.advBased {
		return out
	}
	r.table.each(func(slot int) {
		if !r.table.marked(slot, e.Link) {
			return
		}
		se := &r.table.rows[slot].entry
		if r.advOverlapsOnLink(e.Link, se.Sub.Filter) {
			return // still justified by another advertisement
		}
		r.table.unmark(slot, e.Link)
		out = append(out, Forward{Link: e.Link, Sub: se.Sub, Unsub: true})
	})
	return out
}

// advOverlapsOnLink reports whether any advertisement from the link
// overlaps the filter.
func (r *Router) advOverlapsOnLink(link message.NodeID, f filter.Filter) bool {
	if r.advs == nil {
		return false
	}
	for _, e := range r.advs.ByLink(link) {
		if e.Sub.Filter.Overlaps(f) {
			return true
		}
	}
	return false
}

// subscribeAdvGated mirrors Subscribe under advertisement gating.
func (r *Router) subscribeAdvGated(sub proto.Subscription, fromLink message.NodeID, brokerLinks []message.NodeID) []Forward {
	prev, existed := r.table.Get(sub.ID)
	relocated := existed && prev.Link != fromLink
	slot, _ := r.table.add(sub, fromLink)
	out := r.fwd[:0]
	for _, link := range brokerLinks {
		if link == fromLink {
			continue
		}
		if !r.advOverlapsOnLink(link, sub.Filter) {
			continue
		}
		if !relocated && r.strategy == StrategyCovering && r.coveredOnLink(sub, link) {
			continue
		}
		if !relocated && r.table.marked(slot, link) {
			continue
		}
		r.table.mark(slot, link)
		out = append(out, Forward{Link: link, Sub: sub})
	}
	r.fwd = out
	return out
}
