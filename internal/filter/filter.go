package filter

import (
	"bytes"
	"cmp"
	"slices"
	"strings"

	"rebeca/internal/message"
)

// AttrLocation is the conventional attribute name carrying a notification's
// logical location, and the attribute the myloc marker constrains (§1:
// `(service = "temperature"), (location ∈ myloc)`).
const AttrLocation = "location"

// Filter is a conjunction of constraints: a notification matches iff it
// satisfies every constraint. The empty filter matches everything (the
// "true" filter). Filters are immutable after construction; all
// combinators return new filters.
type Filter struct {
	cs []Constraint
}

// New builds a filter from the given constraints. Constraints are kept in a
// canonical order (by attribute, then operator, then operand) so that
// equivalent filters render to identical keys.
func New(cs ...Constraint) Filter {
	cp := make([]Constraint, len(cs))
	copy(cp, cs)
	slices.SortStableFunc(cp, compareCanonical)
	return Filter{cs: cp}
}

// compareCanonical is New's order. Operands compare by their String
// renderings, appended into stack buffers so that sorting allocates
// nothing for operands of up to 64 bytes.
func compareCanonical(c, d Constraint) int {
	if n := strings.Compare(c.Attr, d.Attr); n != 0 {
		return n
	}
	if c.Op != d.Op {
		return cmp.Compare(c.Op, d.Op)
	}
	var cb, db [64]byte
	return bytes.Compare(c.Val.Append(cb[:0]), d.Val.Append(db[:0]))
}

// All returns the filter that matches every notification.
func All() Filter { return Filter{} }

// Constraints returns a copy of the filter's constraints.
func (f Filter) Constraints() []Constraint {
	cp := make([]Constraint, len(f.cs))
	copy(cp, f.cs)
	return cp
}

// Len returns the number of constraints.
func (f Filter) Len() int { return len(f.cs) }

// IsAll reports whether the filter matches everything.
func (f Filter) IsAll() bool { return len(f.cs) == 0 }

// Matches evaluates the filter against a notification. It reads the
// attribute map directly, so it stays independent of the attribute
// accessor the index and the routing table use — the oracle they are
// tested against.
func (f Filter) Matches(n message.Notification) bool {
	for _, c := range f.cs {
		if !c.Matches(n) {
			return false
		}
	}
	return true
}

// MatchesAttrs evaluates the filter against a notification's attributes
// (the linear routing table's test).
func (f Filter) MatchesAttrs(a Attrs) bool {
	for i := range f.cs {
		if v, ok := a.Get(f.cs[i].Attr); !ok || !f.cs[i].matchesValue(v) {
			return false
		}
	}
	return true
}

// Attr is one attribute of a notification.
type Attr struct {
	Name string
	Val  message.Value
}

// Attrs is the attribute accessor matching runs on: a notification's
// attributes as a list, each name at most once. It comes from a
// Notification's map (AppendAttrs) or straight off an encoded note
// (codec.NoteView), so the index and the routing table match a note in
// either form with one implementation.
type Attrs []Attr

// AppendAttrs appends n's attributes to dst.
func AppendAttrs(dst Attrs, n message.Notification) Attrs {
	for name, v := range n.Attrs {
		dst = append(dst, Attr{Name: name, Val: v})
	}
	return dst
}

// Get returns the named attribute. Notifications carry a handful of
// attributes, so a scan is as quick as a hash lookup.
func (a Attrs) Get(name string) (message.Value, bool) {
	for i := range a {
		if a[i].Name == name {
			return a[i].Val, true
		}
	}
	return message.Value{}, false
}

// Covers reports whether f covers g: every notification matching g also
// matches f. The check is conservative (may return false for a true
// covering, never true for a false one): f covers g iff each constraint of
// f is implied by some constraint of g on the same attribute.
func (f Filter) Covers(g Filter) bool {
	for _, c := range f.cs {
		implied := false
		for _, d := range g.cs {
			if c.Covers(d) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// And returns the conjunction of two filters.
func (f Filter) And(g Filter) Filter {
	return New(append(f.Constraints(), g.Constraints()...)...)
}

// Key returns a canonical string for the filter, usable as a map key and
// stable across equivalent constructions. The empty filter's key is "*".
func (f Filter) Key() string {
	var scratch [128]byte
	return string(f.AppendKey(scratch[:0]))
}

// AppendKey appends the filter's Key to dst: its constraints joined by
// " & ", or "*" for the empty filter. It allocates only when dst's capacity
// runs out, so a key can be measured in a stack buffer for free.
func (f Filter) AppendKey(dst []byte) []byte {
	if len(f.cs) == 0 {
		return append(dst, '*')
	}
	for i := range f.cs {
		if i > 0 {
			dst = append(dst, " & "...)
		}
		dst = f.cs[i].appendTo(dst)
	}
	return dst
}

// String renders the filter like its Key.
func (f Filter) String() string { return f.Key() }

// LocationDependent reports whether the filter contains an unresolved myloc
// marker (§1). Such filters are handled by the logical-mobility machinery
// and must be resolved before entering a routing table.
func (f Filter) LocationDependent() bool {
	for _, c := range f.cs {
		if c.Op == OpMyloc {
			return true
		}
	}
	return false
}

// MatchesIgnoringMarkers evaluates the filter with unresolved myloc and
// context markers treated as satisfied. Clients use it to route a
// delivery lacking subscription identity (a session-layer replay) to the
// local streams it plausibly belongs to: the border broker already
// resolved and matched the markers before delivering.
func (f Filter) MatchesIgnoringMarkers(n message.Notification) bool {
	for _, c := range f.cs {
		if c.Op == OpMyloc || c.Op == OpContext {
			continue
		}
		if !c.Matches(n) {
			return false
		}
	}
	return true
}

// ResolveMyloc substitutes every myloc marker with a concrete membership
// constraint over the given location scope. A replica at broker b resolves
// against b's own scope — which is exactly why buffering virtual clients
// receive only information relevant to their own location (§3.1).
func (f Filter) ResolveMyloc(scope []string) Filter {
	cs := make([]Constraint, 0, len(f.cs))
	for _, c := range f.cs {
		if c.Op != OpMyloc {
			cs = append(cs, c)
			continue
		}
		set := make([]message.Value, len(scope))
		for i, loc := range scope {
			set[i] = message.String(loc)
		}
		cs = append(cs, Constraint{Attr: c.Attr, Op: OpIn, Set: set})
	}
	return New(cs...)
}

// AtLocation is a convenience constructor for location-dependent filters:
// it appends the myloc marker on the conventional location attribute.
func AtLocation(cs ...Constraint) Filter {
	return New(append(cs, Constraint{Attr: AttrLocation, Op: OpMyloc})...)
}
