// Package routing implements the broker routing tables of §2: entries are
// (filter, link) pairs; a matching notification is forwarded along every
// link with a matching entry. Brokers route by simple routing (active
// filters flood to all other links); the covering optimization, which
// suppresses forwarding of subscriptions already covered on a link, is
// E3's ablation with static clients.
package routing

import (
	"cmp"
	"fmt"
	"math/bits"
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
	// on unsubscription (the "covering" improvement of §2). Static clients
	// only; E3's ablation: it is not relocation-aware.
	StrategyCovering
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategySimple:
		return "simple"
	case StrategyCovering:
		return "covering"
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
//
// Rows live in slots: slotOf is the one map keyed by subscription ID, and
// everything else — the matching index, insertion order, link grouping and
// the router's forward marks — addresses a row by its slot. Slots and link
// numbers are reused once freed, so neither grows with churn, only with
// the largest population held at once.
type Table struct {
	slotOf map[message.SubID]int
	rows   []row
	free   []int
	// order lists the rows in insertion order. Removal tombstones in place:
	// an element is live iff its stamp is its row's current stamp, which
	// also skips the element left behind when a removed ID is re-added to
	// the same slot. stamp is the last stamp issued; stamps start at 1
	// (a vacant row holds 0) and are never reused.
	order []hit
	stamp uint64
	// dead counts tombstones in order; compact() runs when they dominate.
	dead int
	// links numbers the links rows arrive on and the router marks them
	// forwarded on (see linkRef).
	linkNum   map[message.NodeID]int
	links     []linkInfo
	freeLinks []int
	// index, when non-nil, answers the Match methods from the
	// access-predicate matching index, filed under the rows' slots: each
	// entry's filter is filed under one of its constraints and only the
	// entries a notification selects are evaluated (every broker's table;
	// linear scanning remains as the tests' reference).
	index *filter.Index

	// Reusable match scratch; the result slices are recycled across calls
	// (see the Match methods' aliasing contract). seen is indexed by link
	// number: a link belongs to the current call iff its gen is gen. lm is
	// double-buffered so one level of re-entrant matching — a middleware
	// stage publishing from inside a delivery hook — cannot clobber a
	// result set its caller is still iterating.
	hits    []hit
	seen    []linkSeen
	gen     uint32
	linkBuf []message.NodeID
	lmBuf   [2][]LinkMatch
	lmFlip  int
}

// row is one slot of the table. A vacant row has stamp 0 and no marks.
type row struct {
	entry Entry
	stamp uint64
	// link is entry.Link's number.
	link int
	// marks is the router's record of the links this row's subscription
	// was forwarded on, as a set of link numbers: a bitmask for numbers
	// below 64, a lazily allocated map for the rest.
	marks uint64
	over  map[int]bool
}

// hit names a row as of one stamp: an order element, or a match result.
type hit struct {
	stamp uint64
	slot  int
}

// linkInfo is one link number's link and the count of rows and marks
// holding the number.
type linkInfo struct {
	name message.NodeID
	refs int
}

// linkSeen is a link number's per-call match state: the call's gen once
// the link has matched, and then the link's position in the result and
// whether its subscription IDs are collected.
type linkSeen struct {
	gen  uint32
	pos  int
	subs bool
}

// NewTable returns an empty table using linear matching: the tests'
// reference for NewIndexedTable.
func NewTable() *Table {
	return &Table{
		slotOf:  make(map[message.SubID]int),
		linkNum: make(map[message.NodeID]int),
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

// linkRef returns the link's number, taking a reference on it: every row
// holds one on its arrival link and one per link it is marked on. A number
// is recycled when its last reference goes, so a churning population of
// client ports reuses numbers instead of growing the set.
func (t *Table) linkRef(link message.NodeID) int {
	n, ok := t.linkNum[link]
	if !ok {
		if k := len(t.freeLinks); k > 0 {
			n = t.freeLinks[k-1]
			t.freeLinks = t.freeLinks[:k-1]
		} else {
			n = len(t.links)
			t.links = append(t.links, linkInfo{})
		}
		t.links[n].name = link
		t.linkNum[link] = n
	}
	t.links[n].refs++
	return n
}

// linkUnref drops a reference taken by linkRef.
func (t *Table) linkUnref(n int) {
	l := &t.links[n]
	if l.refs--; l.refs == 0 {
		delete(t.linkNum, l.name)
		*l = linkInfo{}
		t.freeLinks = append(t.freeLinks, n)
	}
}

// Add inserts or replaces the entry for the subscription ID. It returns
// true when an entry with this ID already existed (re-subscription after
// relocation replaces the link).
func (t *Table) Add(sub proto.Subscription, link message.NodeID) (replaced bool) {
	_, replaced = t.add(sub, link)
	return replaced
}

// add is Add returning the entry's slot. A replacement keeps the slot, the
// insertion stamp and the forward marks.
func (t *Table) add(sub proto.Subscription, link message.NodeID) (slot int, replaced bool) {
	n := t.linkRef(link)
	slot, replaced = t.slotOf[sub.ID]
	if replaced {
		r := &t.rows[slot]
		t.linkUnref(r.link)
		r.entry, r.link = Entry{Sub: sub, Link: link}, n
	} else {
		if k := len(t.free); k > 0 {
			slot = t.free[k-1]
			t.free = t.free[:k-1]
		} else {
			slot = len(t.rows)
			t.rows = append(t.rows, row{})
		}
		t.stamp++
		t.rows[slot] = row{entry: Entry{Sub: sub, Link: link}, stamp: t.stamp, link: n}
		t.order = append(t.order, hit{stamp: t.stamp, slot: slot})
		t.slotOf[sub.ID] = slot
	}
	if t.index != nil {
		t.index.AddSlot(slot, sub.Filter)
	}
	return slot, replaced
}

// Remove deletes the entry for the ID, returning it, and with it the
// router's forward marks for the ID. Removal is O(1) amortized: the order
// element is tombstoned and reclaimed by a periodic compaction instead of
// shifting every later entry.
func (t *Table) Remove(id message.SubID) (Entry, bool) {
	slot, ok := t.slotOf[id]
	if !ok {
		return Entry{}, false
	}
	r := &t.rows[slot]
	e := r.entry
	for m := r.marks; m != 0; m &= m - 1 {
		t.linkUnref(bits.TrailingZeros64(m))
	}
	for n := range r.over {
		t.linkUnref(n)
	}
	t.linkUnref(r.link)
	*r = row{}
	delete(t.slotOf, id)
	t.free = append(t.free, slot)
	if t.index != nil {
		t.index.RemoveSlot(slot)
	}
	t.dead++
	if t.dead > 64 && t.dead > len(t.order)/2 {
		t.compact()
	}
	return e, true
}

// live reports whether an order element is a current row.
func (t *Table) live(h hit) bool { return t.rows[h.slot].stamp == h.stamp }

// compact rewrites order without tombstones. Amortized against the
// removals that created the tombstones, this keeps every iteration
// O(live entries) while Remove stays O(1).
func (t *Table) compact() {
	t.order = slices.DeleteFunc(t.order, func(h hit) bool { return !t.live(h) })
	t.dead = 0
}

// each calls fn with every row's slot in insertion order. fn may mark rows
// but must not add or remove any.
func (t *Table) each(fn func(slot int)) {
	for _, h := range t.order {
		if t.live(h) {
			fn(h.slot)
		}
	}
}

// Get returns the entry for the ID.
func (t *Table) Get(id message.SubID) (Entry, bool) {
	slot, ok := t.slotOf[id]
	if !ok {
		return Entry{}, false
	}
	return t.rows[slot].entry, true
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.slotOf) }

// Entries returns all entries in insertion order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.slotOf))
	t.each(func(slot int) { out = append(out, t.rows[slot].entry) })
	return out
}

// ByLink returns all entries received from the given link, in insertion
// order.
func (t *Table) ByLink(link message.NodeID) []Entry {
	n, ok := t.linkNum[link]
	if !ok {
		return nil
	}
	var out []Entry
	t.each(func(slot int) {
		if r := &t.rows[slot]; r.link == n {
			out = append(out, r.entry)
		}
	})
	return out
}

// --- forward marks (the Router's; see router.go) -------------------------

// marked reports whether the row is marked forwarded on the link.
func (t *Table) marked(slot int, link message.NodeID) bool {
	n, ok := t.linkNum[link]
	return ok && hasMark(&t.rows[slot], n)
}

func hasMark(r *row, n int) bool {
	if n < 64 {
		return r.marks&(1<<n) != 0
	}
	return r.over[n]
}

// mark records the row as forwarded on the link.
func (t *Table) mark(slot int, link message.NodeID) {
	if t.marked(slot, link) {
		return
	}
	n, r := t.linkRef(link), &t.rows[slot]
	if n < 64 {
		r.marks |= 1 << n
		return
	}
	if r.over == nil {
		r.over = make(map[int]bool)
	}
	r.over[n] = true
}

// unmark drops the row's mark on the link, if it has one.
func (t *Table) unmark(slot int, link message.NodeID) {
	n, ok := t.linkNum[link]
	if !ok {
		return
	}
	r := &t.rows[slot]
	switch {
	case n < 64 && r.marks&(1<<n) != 0:
		r.marks &^= 1 << n
	case n >= 64 && r.over[n]:
		delete(r.over, n)
	default:
		return
	}
	t.linkUnref(n)
}

// anyMarked reports whether some row other than skip is marked on the link
// and satisfies pred.
func (t *Table) anyMarked(link message.NodeID, skip message.SubID, pred func(*Entry) bool) bool {
	n, ok := t.linkNum[link]
	if !ok {
		return false
	}
	for i := range t.rows {
		if r := &t.rows[i]; r.stamp != 0 && hasMark(r, n) && r.entry.Sub.ID != skip && pred(&r.entry) {
			return true
		}
	}
	return false
}

// --- matching -------------------------------------------------------------

// nextGen starts a match call's link state.
func (t *Table) nextGen() {
	if len(t.seen) < len(t.links) {
		t.seen = append(t.seen, make([]linkSeen, len(t.links)-len(t.seen))...)
	}
	if t.gen++; t.gen == 0 {
		clear(t.seen)
		t.gen = 1
	}
}

// numOf returns the link's number, or -1 — no row's — for a link the table
// does not know.
func (t *Table) numOf(link message.NodeID) int {
	if n, ok := t.linkNum[link]; ok {
		return n
	}
	return -1
}

// collect gathers the rows whose filters match, except those from the
// link numbered skip, into the hits scratch. With firstPerLink only the
// first matching row of each link is kept — all Match needs — so the
// linear scan skips the filters of links already matched; otherwise the
// hits come in insertion order.
func (t *Table) collect(a filter.Attrs, skip int, firstPerLink bool) []hit {
	t.nextGen()
	hits := t.hits[:0]
	take := func(slot int, r *row) {
		if firstPerLink {
			if t.seen[r.link].gen == t.gen {
				return
			}
			t.seen[r.link].gen = t.gen
		}
		hits = append(hits, hit{stamp: r.stamp, slot: slot})
	}
	if t.index != nil {
		t.index.MatchSlots(a, func(slot int) {
			if r := &t.rows[slot]; r.link != skip {
				take(slot, r)
			}
		})
		// The index visits constrained matches in no particular order;
		// restore the table's insertion order (documented contract, and
		// what the per-subscription stream tests pin down).
		if !firstPerLink {
			slices.SortFunc(hits, func(x, y hit) int { return cmp.Compare(x.stamp, y.stamp) })
		}
	} else {
		for _, h := range t.order {
			r := &t.rows[h.slot]
			if r.stamp != h.stamp || r.link == skip || (firstPerLink && t.seen[r.link].gen == t.gen) {
				continue
			}
			if r.entry.Sub.Filter.MatchesAttrs(a) {
				take(h.slot, r)
			}
		}
	}
	t.hits = hits
	return hits
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
	out := t.linkBuf[:0]
	for _, h := range t.collect(filter.AppendAttrs(buf[:0], n), t.numOf(from), true) {
		out = append(out, t.rows[h.slot].entry.Link)
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
// needSubs is asked once per matching link.
func (t *Table) MatchByLinkAttrs(a filter.Attrs, from message.NodeID, needSubs func(message.NodeID) bool) []LinkMatch {
	hits := t.collect(a, t.numOf(from), false)
	buf := &t.lmBuf[t.lmFlip]
	t.lmFlip = 1 - t.lmFlip
	out := (*buf)[:0]
	for _, h := range hits {
		r := &t.rows[h.slot]
		s := &t.seen[r.link]
		if s.gen != t.gen {
			// Subs must not alias a previous call's result: those slices
			// escape into queued deliveries. Reset to nil, never to [:0].
			*s = linkSeen{gen: t.gen, pos: len(out), subs: needSubs == nil || needSubs(r.entry.Link)}
			out = append(out, LinkMatch{Link: r.entry.Link})
		}
		if s.subs {
			out[s.pos].Subs = append(out[s.pos].Subs, r.entry.Sub.ID)
		}
	}
	slices.SortFunc(out, func(a, b LinkMatch) int {
		return strings.Compare(string(a.Link), string(b.Link))
	})
	*buf = out
	return out
}

// MatchEntries returns every entry whose filter matches, in insertion
// order, regardless of link. The result is freshly allocated (callers may
// retain it); the broker hot path goes through MatchByLink instead.
func (t *Table) MatchEntries(n message.Notification) []Entry {
	var buf [8]filter.Attr
	hits := t.collect(filter.AppendAttrs(buf[:0], n), -1, false)
	out := make([]Entry, len(hits))
	for i, h := range hits {
		out[i] = t.rows[h.slot].entry
	}
	return out
}
