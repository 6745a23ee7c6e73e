// Package routing implements the broker routing tables of §2: entries are
// (filter, link) pairs; a matching notification is forwarded along every
// link with a matching entry. The basic strategy is simple routing (active
// filters flood to all other links); the covering optimization suppresses
// forwarding of subscriptions already covered on a link, and flooding is
// the strategy-free baseline.
package routing

import (
	"fmt"
	"slices"
	"strings"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

// Strategy selects the subscription-forwarding algorithm. Enums start at
// one; the zero Strategy is invalid.
type Strategy int

// Supported strategies.
const (
	StrategyInvalid Strategy = iota
	// StrategySimple forwards every subscription on every other link (§2
	// "active filters are simply added to the routing table").
	StrategySimple
	// StrategyCovering suppresses forwarding of subscriptions covered by a
	// subscription already forwarded on the same link, and un-suppresses
	// on unsubscription (the "covering" improvement of §2).
	StrategyCovering
	// StrategyFlooding forwards no subscriptions at all; notifications are
	// broadcast along the overlay instead (baseline).
	StrategyFlooding
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategySimple:
		return "simple"
	case StrategyCovering:
		return "covering"
	case StrategyFlooding:
		return "flooding"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Entry is one routing table row: a subscription and the link it arrived
// from (notifications matching Filter are forwarded *to* Link).
type Entry struct {
	Sub  proto.Subscription
	Link message.NodeID
}

// Table is a broker's routing table. It is not safe for concurrent use;
// each broker drives its table from its single event loop — which is also
// what lets the Match methods hand out reusable scratch buffers instead of
// allocating per notification.
type Table struct {
	entries map[message.SubID]Entry
	// order holds insertion order for deterministic iteration. Removal
	// tombstones in place (the id stays until compaction); an id is live
	// at position i iff it is present in entries and pos[id] == i, which
	// also skips the stale occurrence left behind when a removed id is
	// re-added.
	order []message.SubID
	// pos maps each live entry to its position in order.
	pos map[message.SubID]int
	// dead counts tombstones in order; compact() runs when they dominate.
	dead int
	// index, when non-nil, answers Match/MatchEntries from the
	// access-predicate matching index: each entry's filter is filed under
	// one of its constraints and only the entries a notification selects
	// are evaluated (the default; linear scanning remains as the E3
	// ablation and the tests' reference).
	index *filter.Index

	// Reusable match scratch. seenLinks doubles as the per-call dedup set
	// and link->result-index map; the result slices are recycled across
	// calls (see the Match methods' aliasing contract). lm is
	// double-buffered so one level of re-entrant matching — a middleware
	// stage publishing from inside a delivery hook — cannot clobber a
	// result set its caller is still iterating.
	seenLinks map[message.NodeID]int
	linkBuf   []message.NodeID
	entryBuf  []Entry
	lmBuf     [2][]LinkMatch
	lmFlip    int
}

// NewTable returns an empty table using linear matching.
func NewTable() *Table {
	return &Table{
		entries:   make(map[message.SubID]Entry),
		pos:       make(map[message.SubID]int),
		seenLinks: make(map[message.NodeID]int),
	}
}

// NewIndexedTable returns an empty table backed by the access-predicate
// index (filter.Index) — same semantics as NewTable, matching cost that
// follows the number of matching entries instead of the table size.
func NewIndexedTable() *Table {
	t := NewTable()
	t.index = filter.NewIndex()
	return t
}

// Indexed reports whether the table uses the matching index.
func (t *Table) Indexed() bool { return t.index != nil }

// live reports whether the id at order position i is a current entry (not
// a tombstone, not a stale duplicate of a re-added id). With no tombstones
// outstanding every slot is live, so the position check — a second map
// lookup — is skipped on clean tables.
func (t *Table) live(id message.SubID, i int) (Entry, bool) {
	e, ok := t.entries[id]
	if !ok || (t.dead > 0 && t.pos[id] != i) {
		return Entry{}, false
	}
	return e, true
}

// Add inserts or replaces the entry for the subscription ID. It returns
// true when an entry with this ID already existed (re-subscription after
// relocation replaces the link).
func (t *Table) Add(sub proto.Subscription, link message.NodeID) (replaced bool) {
	if _, ok := t.entries[sub.ID]; ok {
		replaced = true
	} else {
		t.order = append(t.order, sub.ID)
		t.pos[sub.ID] = len(t.order) - 1
	}
	t.entries[sub.ID] = Entry{Sub: sub, Link: link}
	if t.index != nil {
		t.index.Add(string(sub.ID), sub.Filter)
	}
	return replaced
}

// Remove deletes the entry for the ID, returning it. Removal is O(1)
// amortized: the order slot is tombstoned and reclaimed by a periodic
// compaction instead of shifting (and re-numbering) every later entry.
func (t *Table) Remove(id message.SubID) (Entry, bool) {
	e, ok := t.entries[id]
	if !ok {
		return Entry{}, false
	}
	delete(t.entries, id)
	delete(t.pos, id)
	t.dead++
	if t.index != nil {
		t.index.Remove(string(id))
	}
	if t.dead > 64 && t.dead > len(t.order)/2 {
		t.compact()
	}
	return e, true
}

// compact rewrites order without tombstones and renumbers pos. Amortized
// against the removals that created the tombstones, this keeps every
// iteration O(live entries) while Remove stays O(1).
func (t *Table) compact() {
	w := 0
	for i, id := range t.order {
		if _, ok := t.live(id, i); !ok {
			continue
		}
		t.order[w] = id
		t.pos[id] = w
		w++
	}
	t.order = t.order[:w]
	t.dead = 0
}

// Get returns the entry for the ID.
func (t *Table) Get(id message.SubID) (Entry, bool) {
	e, ok := t.entries[id]
	return e, ok
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// Entries returns all entries in insertion order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for i, id := range t.order {
		if e, ok := t.live(id, i); ok {
			out = append(out, e)
		}
	}
	return out
}

// Match returns the deduplicated, sorted set of links whose entries match
// the notification, excluding the link the notification arrived from (a
// notification is never reflected back).
//
// The returned slice is a reusable scratch buffer owned by the table: it
// is valid until the next Match call and must not be retained or sent
// across goroutines. On the indexed path the whole call is allocation
// free.
func (t *Table) Match(n message.Notification, from message.NodeID) []message.NodeID {
	var buf [8]filter.Attr
	return t.match(filter.AppendAttrs(buf[:0], n), from)
}

// match is Match over an attribute accessor.
func (t *Table) match(a filter.Attrs, from message.NodeID) []message.NodeID {
	seen := t.seenLinks
	clear(seen)
	out := t.linkBuf[:0]
	add := func(e Entry) {
		if e.Link == from {
			return
		}
		if _, dup := seen[e.Link]; dup {
			return
		}
		seen[e.Link] = 0
		out = append(out, e.Link)
	}
	if t.index != nil {
		t.index.MatchAttrs(a, func(key string) {
			add(t.entries[message.SubID(key)])
		})
	} else {
		for i, id := range t.order {
			e, ok := t.live(id, i)
			if !ok || e.Link == from {
				continue
			}
			// Dedup before evaluating: once a link matched, the remaining
			// entries behind it need no filter work at all.
			if _, dup := seen[e.Link]; dup {
				continue
			}
			if e.Sub.Filter.MatchesAttrs(a) {
				add(e)
			}
		}
	}
	slices.Sort(out)
	t.linkBuf = out
	return out
}

// LinkMatch groups the matching subscription IDs behind one link: the
// notification is transmitted once per link, and the IDs travel with the
// delivery so clients can route it to the right per-subscription streams.
type LinkMatch struct {
	Link message.NodeID
	Subs []message.SubID
}

// MatchByLink returns one LinkMatch per matching link, excluding the link
// the notification arrived from, with the matching subscription IDs
// collected per link. needSubs, when non-nil, limits the ID collection to
// the links it selects (brokers pass their local-port predicate: peer
// forwards carry no subscription identity, so collecting their IDs on the
// hot publish path would be wasted allocation). Links are sorted; IDs
// keep table insertion order.
//
// The returned slice is table-owned scratch: callers must finish with it
// before running any code that could match on this table again — the
// broker copies port deliveries out and releases the buffer before its
// delivery hooks (which may synchronously publish) run. Double-buffering
// additionally tolerates a single overlapping use as defense in depth.
// The Subs slices are freshly allocated (they travel on KDeliver
// messages and outlive the call); only the grouping structure is
// recycled.
func (t *Table) MatchByLink(n message.Notification, from message.NodeID, needSubs func(message.NodeID) bool) []LinkMatch {
	var buf [8]filter.Attr
	return t.MatchByLinkAttrs(filter.AppendAttrs(buf[:0], n), from, needSubs)
}

// MatchByLinkAttrs is MatchByLink over an attribute accessor — what a
// broker matches a publish on, whichever form its note travels in.
func (t *Table) MatchByLinkAttrs(a filter.Attrs, from message.NodeID, needSubs func(message.NodeID) bool) []LinkMatch {
	ents := t.matchEntriesScratch(a)
	byLink := t.seenLinks
	clear(byLink)
	buf := &t.lmBuf[t.lmFlip]
	t.lmFlip = 1 - t.lmFlip
	out := (*buf)[:0]
	for _, e := range ents {
		if e.Link == from {
			continue
		}
		i, ok := byLink[e.Link]
		if !ok {
			i = len(out)
			byLink[e.Link] = i
			// Subs must not alias a previous call's result: those slices
			// escape into queued deliveries. Reset to nil, never to [:0].
			out = append(out, LinkMatch{Link: e.Link})
		}
		if needSubs == nil || needSubs(e.Link) {
			out[i].Subs = append(out[i].Subs, e.Sub.ID)
		}
	}
	slices.SortFunc(out, func(a, b LinkMatch) int {
		return strings.Compare(string(a.Link), string(b.Link))
	})
	*buf = out
	return out
}

// MatchEntries returns every entry whose filter matches, in insertion
// order, regardless of link — used by border brokers to fan out to local
// clients per subscription. The result is freshly allocated (callers may
// retain it); the broker hot path goes through MatchByLink instead.
func (t *Table) MatchEntries(n message.Notification) []Entry {
	var buf [8]filter.Attr
	return slices.Clone(t.matchEntriesScratch(filter.AppendAttrs(buf[:0], n)))
}

// matchEntriesScratch is MatchEntries into the table's reusable entry
// buffer: valid until the next Match/MatchByLink/MatchEntries call.
func (t *Table) matchEntriesScratch(a filter.Attrs) []Entry {
	out := t.entryBuf[:0]
	if t.index != nil {
		t.index.MatchAttrs(a, func(key string) {
			out = append(out, t.entries[message.SubID(key)])
		})
		// The index visits constrained matches in no particular order;
		// restore the table's insertion order (documented contract, and
		// what the per-subscription stream tests pin down).
		slices.SortFunc(out, func(a, b Entry) int {
			return t.pos[a.Sub.ID] - t.pos[b.Sub.ID]
		})
		t.entryBuf = out
		return out
	}
	for i, id := range t.order {
		e, ok := t.live(id, i)
		if !ok {
			continue
		}
		if e.Sub.Filter.MatchesAttrs(a) {
			out = append(out, e)
		}
	}
	t.entryBuf = out
	return out
}

// ByLink returns all entries received from the given link.
func (t *Table) ByLink(link message.NodeID) []Entry {
	var out []Entry
	for i, id := range t.order {
		if e, ok := t.live(id, i); ok && e.Link == link {
			out = append(out, e)
		}
	}
	return out
}

// RemoveLink drops every entry from the given link (link/broker failure or
// client detach), returning the removed entries. With tombstoned removal
// this is O(order + removed), not O(removed × table).
func (t *Table) RemoveLink(link message.NodeID) []Entry {
	var ids []message.SubID
	for i, id := range t.order {
		if e, ok := t.live(id, i); ok && e.Link == link {
			ids = append(ids, id)
		}
	}
	var removed []Entry
	for _, id := range ids {
		if e, ok := t.Remove(id); ok {
			removed = append(removed, e)
		}
	}
	return removed
}

// CoveredBy returns the IDs of entries on `link` whose filters cover f,
// excluding the entry with id `self`.
func (t *Table) CoveredBy(f filter.Filter, link message.NodeID, self message.SubID) []message.SubID {
	var out []message.SubID
	for i, id := range t.order {
		e, ok := t.live(id, i)
		if !ok || id == self || e.Link != link {
			continue
		}
		if e.Sub.Filter.Covers(f) {
			out = append(out, id)
		}
	}
	return out
}
