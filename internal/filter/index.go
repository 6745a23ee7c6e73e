package filter

import (
	"slices"

	"rebeca/internal/message"
)

// Index is an access-predicate matching index over many filters: the cost
// of Match follows the number of filters a notification selects, not the
// number of filters indexed.
//
// Every filter is filed under exactly one of its constraints — its access
// predicate. A notification reaches a filter only through that constraint,
// and the filter's remaining constraints are then verified directly on the
// candidate:
//
//   - A filter with a hashable constraint (Eq, or In with a member a value
//     can equal) is filed in that constraint's value bucket(s), eq[attr][v].
//     Among several hashable constraints Add picks the one whose bucket is
//     currently smallest (an In is judged by its largest bucket), so a
//     predicate every subscriber shares (service = menu) is not the access
//     path while a selective one (location = region-7) exists.
//   - A filter with none is filed in scan[attr] under the constraint whose
//     list is currently shortest; Match evaluates that constraint on the
//     attribute value it already holds.
//   - A zero-constraint filter (All) matches everything and lives in all; a
//     filter with a constraint no value satisfies (Eq(NaN), an In without
//     a usable member) matches nothing and is filed nowhere.
//
// The choice of access predicate affects speed only, never the result: a
// filter matches iff all its constraints hold, and whichever one is the way
// in, the others are checked. Because a slot is filed once and a
// notification carries one value per attribute, no slot can be reached
// twice in one Match — there is no per-notification state to count,
// reset or deduplicate.
//
// Match costs O(selected buckets + scan lists of the attributes carried),
// each candidate paying one verification. What stays linear is a scan
// list: range and string predicates are not hashable, so a table of
// range-only filters on one attribute is still walked whole for every
// notification carrying it (sorted bound arrays would fix that; no
// subscription in the tree is shaped that way). Choosing by bucket size at
// Add time is a heuristic, not an optimum: buckets that grow later are not
// rebalanced.
//
// Filters occupy integer slots the caller chooses (AddSlot, RemoveSlot,
// MatchSlots), so a caller that keeps per-filter state in a slot-indexed
// array of its own — routing.Table does — needs no key lookup on the way
// back from a match. Add, Remove, Match and MatchAttrs are the same index
// keyed by string: they assign the slots themselves. The hot path touches
// only flat slices; hash lookups key on a comparable value struct and each
// slot holds its filter's own (immutable) constraint list, so neither Add
// nor Match copies or allocates per filter. The index is not safe for
// concurrent use.
type Index struct {
	// cons and access are slot-indexed. cons[slot] is the slot's filter's
	// constraint list, shared with the Filter (which never mutates it).
	// access[slot] is the position in cons[slot] of the constraint the slot
	// is filed under, notFiled, or vacant.
	cons   [][]Constraint
	access []int
	// filed counts the occupied slots.
	filed int
	// all lists slots of match-everything filters, kept sorted ascending
	// so Match visits them deterministically.
	all []int
	// eq[attr][valueKey] lists the slots whose access predicate is an
	// Eq/In on attr satisfied by exactly that value.
	eq map[string]map[valueKey][]int
	// scan[attr] lists the slots whose access predicate is a non-hashable
	// constraint on attr, with that constraint.
	scan map[string][]scanEntry

	// The string-keyed methods' slot assignment: slotOf maps a key to its
	// slot, keys is slot-indexed, free lists the slots they released.
	slotOf map[string]int
	keys   []string
	free   []int
}

// notFiled marks an occupied slot without an access predicate: match-all
// or unsatisfiable. vacant marks a slot holding no filter.
const (
	notFiled = -1
	vacant   = -2
)

type scanEntry struct {
	slot int
	c    Constraint
}

// NewIndex returns an empty matching index.
func NewIndex() *Index {
	return &Index{
		slotOf: make(map[string]int),
		eq:     make(map[string]map[valueKey][]int),
		scan:   make(map[string][]scanEntry),
	}
}

// Len returns the number of indexed filters.
func (ix *Index) Len() int { return ix.filed }

// Add indexes the filter under the key, replacing any previous filter with
// the same key.
func (ix *Index) Add(key string, f Filter) {
	slot, ok := ix.slotOf[key]
	if !ok {
		if n := len(ix.free); n > 0 {
			slot = ix.free[n-1]
			ix.free = ix.free[:n-1]
			ix.keys[slot] = key
		} else {
			slot = len(ix.keys)
			ix.keys = append(ix.keys, key)
		}
		ix.slotOf[key] = slot
	}
	ix.AddSlot(slot, f)
}

// Remove drops the filter registered under key.
func (ix *Index) Remove(key string) {
	slot, ok := ix.slotOf[key]
	if !ok {
		return
	}
	delete(ix.slotOf, key)
	ix.keys[slot] = ""
	ix.free = append(ix.free, slot)
	ix.RemoveSlot(slot)
}

// AddSlot indexes the filter in the slot, replacing the slot's previous
// filter if it holds one. Slots are the caller's to choose; the index
// grows to the largest slot used, so callers should keep them dense
// (reuse freed slots).
func (ix *Index) AddSlot(slot int, f Filter) {
	for len(ix.access) <= slot {
		ix.cons = append(ix.cons, nil)
		ix.access = append(ix.access, vacant)
	}
	if ix.access[slot] != vacant {
		ix.RemoveSlot(slot)
	}
	cs := f.cs
	ix.cons[slot] = cs
	ix.filed++
	if len(cs) == 0 {
		ix.access[slot] = notFiled
		ix.insertAll(slot)
		return
	}
	a := ix.chooseAccess(cs)
	ix.access[slot] = a
	if a == notFiled {
		return
	}
	switch c := &cs[a]; c.Op {
	case OpEq, OpIn:
		ix.eachBucket(c, slot, (*Index).addEq)
	default:
		ix.scan[c.Attr] = append(ix.scan[c.Attr], scanEntry{slot: slot, c: *c})
	}
}

// eachBucket applies op — addEq or removeEq — to every value bucket a
// hashable access predicate selects. Add and Remove share this walk so the
// buckets they touch are always the same.
func (ix *Index) eachBucket(c *Constraint, slot int, op func(*Index, string, valueKey, int)) {
	if c.Op == OpEq {
		op(ix, c.Attr, keyOf(c.Val), slot)
		return
	}
	for _, v := range c.Set {
		if hashable(v) {
			op(ix, c.Attr, keyOf(v), slot)
		}
	}
}

// chooseAccess picks the constraint to file a filter under: the hashable
// one with the smallest bucket, else the scan one with the shortest list
// (ties go to the earlier constraint). It returns notFiled when some
// constraint can never be satisfied — the filter matches nothing.
func (ix *Index) chooseAccess(cs []Constraint) int {
	best, bestSize, bestHashed := notFiled, 0, false
	for i := range cs {
		c, size, hashed := &cs[i], 0, false
		switch c.Op {
		case OpEq:
			if !hashable(c.Val) {
				return notFiled
			}
			size, hashed = len(ix.eq[c.Attr][keyOf(c.Val)]), true
		case OpIn:
			// An In is reached through any of its buckets; the largest one
			// bounds what a notification through it costs.
			for _, v := range c.Set {
				if hashable(v) {
					size, hashed = max(size, len(ix.eq[c.Attr][keyOf(v)])), true
				}
			}
			if !hashed {
				return notFiled
			}
		default:
			size = len(ix.scan[c.Attr])
		}
		if best == notFiled || (hashed && !bestHashed) || (hashed == bestHashed && size < bestSize) {
			best, bestSize, bestHashed = i, size, hashed
		}
	}
	return best
}

// insertAll adds a slot to the sorted match-all list.
func (ix *Index) insertAll(slot int) {
	i, _ := slices.BinarySearch(ix.all, slot)
	ix.all = slices.Insert(ix.all, i, slot)
}

// removeAll drops a slot from the sorted match-all list.
func (ix *Index) removeAll(slot int) {
	if i, ok := slices.BinarySearch(ix.all, slot); ok {
		ix.all = slices.Delete(ix.all, i, i+1)
	}
}

// addEq files slot in one value bucket. A slot is filed by a single Add
// call, so a repeated In member (In(1, 1.0)) shows up as the bucket's
// last element and is skipped: one bucket never lists a slot twice.
func (ix *Index) addEq(attr string, vk valueKey, slot int) {
	m, ok := ix.eq[attr]
	if !ok {
		m = make(map[valueKey][]int)
		ix.eq[attr] = m
	}
	b := m[vk]
	if n := len(b); n > 0 && b[n-1] == slot {
		return
	}
	m[vk] = append(b, slot)
}

// removeEq un-files slot from one value bucket; a bucket that no longer
// lists it (the second of two repeated In members) is left alone.
func (ix *Index) removeEq(attr string, vk valueKey, slot int) {
	m := ix.eq[attr]
	b := m[vk]
	i := slices.Index(b, slot)
	if i < 0 {
		return
	}
	if len(b) == 1 {
		delete(m, vk)
		if len(m) == 0 {
			delete(ix.eq, attr)
		}
		return
	}
	b[i] = b[len(b)-1]
	m[vk] = b[:len(b)-1]
}

// RemoveSlot drops the slot's filter; a vacant slot is left alone.
func (ix *Index) RemoveSlot(slot int) {
	if slot >= len(ix.access) || ix.access[slot] == vacant {
		return
	}
	cs := ix.cons[slot]
	switch a := ix.access[slot]; {
	case len(cs) == 0:
		ix.removeAll(slot)
	case a == notFiled:
	case cs[a].Op == OpEq || cs[a].Op == OpIn:
		ix.eachBucket(&cs[a], slot, (*Index).removeEq)
	default:
		attr := cs[a].Attr
		es := ix.scan[attr]
		i := slices.IndexFunc(es, func(e scanEntry) bool { return e.slot == slot })
		if len(es) == 1 {
			delete(ix.scan, attr)
		} else {
			es[i] = es[len(es)-1]
			es[len(es)-1] = scanEntry{}
			ix.scan[attr] = es[:len(es)-1]
		}
	}
	ix.cons[slot] = nil
	ix.access[slot] = vacant
	ix.filed--
}

// Match calls visit for every indexed filter matching the notification,
// each exactly once.
//
// Visit-order contract: the zero-constraint (match-all) filters are
// visited first, in ascending slot order — deterministic across calls for
// an unchanged index. The constrained matches follow in an unspecified
// order (the walk follows the notification's attributes, and buckets are
// reordered by removals), so callers needing a total order re-sort the
// visited keys themselves, as routing.Table does with its insertion
// stamps.
//
// Match is MatchAttrs over the notification's map; like it, it allocates
// nothing for a notification of up to eight attributes.
func (ix *Index) Match(n message.Notification, visit func(key string)) {
	var buf [8]Attr
	ix.MatchAttrs(AppendAttrs(buf[:0], n), visit)
}

// MatchAttrs is Match over an attribute accessor, whichever form the
// notification is in.
func (ix *Index) MatchAttrs(a Attrs, visit func(key string)) {
	ix.MatchSlots(a, func(slot int) { visit(ix.keys[slot]) })
}

// MatchSlots calls visit with the slot of every indexed filter matching
// the attributes, each exactly once and in Match's visit order: the one
// matching implementation. The path allocates nothing: there is no
// per-call state, and hash keys are stack values.
func (ix *Index) MatchSlots(a Attrs, visit func(slot int)) {
	for _, slot := range ix.all {
		visit(slot)
	}
	for i := range a {
		attr, v := a[i].Name, &a[i].Val
		if buckets, ok := ix.eq[attr]; ok {
			for _, slot := range buckets[keyOf(*v)] {
				if ix.restHolds(slot, a) {
					visit(slot)
				}
			}
		}
		es := ix.scan[attr]
		for j := range es {
			if e := &es[j]; e.c.matchesValue(*v) && ix.restHolds(e.slot, a) {
				visit(e.slot)
			}
		}
	}
}

// restHolds verifies every constraint of the slot's filter except its
// access predicate, which the caller established on the way in.
func (ix *Index) restHolds(slot int, a Attrs) bool {
	acc, cs := ix.access[slot], ix.cons[slot]
	for i := range cs {
		if i == acc {
			continue
		}
		if v, ok := a.Get(cs[i].Attr); !ok || !cs[i].matchesValue(v) {
			return false
		}
	}
	return true
}

// valueKey canonicalizes a value for hash lookup as a comparable struct —
// no string building on the Match hot path. Numeric values share the
// float key space so Int(3) and Float(3) collide, matching Value.Equal
// semantics.
type valueKey struct {
	kind byte // 'n' numeric, 's' string, 'b' bool, 'N' NaN, '?' invalid
	num  float64
	str  string
}

// hashable reports whether some attribute value can equal v, i.e. whether
// v may serve as a bucket key. NaN and the invalid Value equal nothing
// (Value.Equal), so an Eq on them is unsatisfiable and an In ignores them
// — and a raw NaN map key would be unreachable, hence un-removable.
func hashable(v message.Value) bool {
	return v.IsValid() && !(v.Kind() == message.KindFloat && v.FloatVal() != v.FloatVal())
}

func keyOf(v message.Value) valueKey {
	switch v.Kind() {
	case message.KindInt:
		return valueKey{kind: 'n', num: float64(v.IntVal())}
	case message.KindFloat:
		if f := v.FloatVal(); f != f {
			// Canonicalize NaN: never a bucket key (see hashable), and as
			// a lookup key it must not panic or behave
			// platform-dependently.
			return valueKey{kind: 'N'}
		}
		return valueKey{kind: 'n', num: v.FloatVal()}
	case message.KindString:
		return valueKey{kind: 's', str: v.Str()}
	case message.KindBool:
		if v.BoolVal() {
			return valueKey{kind: 'b', num: 1}
		}
		return valueKey{kind: 'b'}
	default:
		return valueKey{kind: '?'}
	}
}
