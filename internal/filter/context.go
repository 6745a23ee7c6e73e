package filter

import "rebeca/internal/message"

// Context-dependent subscriptions generalize the myloc marker to arbitrary
// client state, the final research-agenda item of §4 ("from location-
// awareness to context-awareness"): a constraint `attr ∈ ctx:<name>`
// matches when the attribute falls in the set a context resolver derives
// from the client's current situation. Location is the special case
// `location ∈ ctx:myloc`.
//
// Like myloc, context markers never match unresolved; the replicator layer
// resolves them per broker, so buffering virtual clients subscribe to the
// context a client arriving *there* would have.

// Context returns a context-marker constraint: attr ∈ ctx:<name>.
func Context(attr, name string) Constraint {
	return Constraint{Attr: attr, Op: OpContext, Val: message.String(name)}
}

// ContextResolver derives the concrete value set of a named context for
// one attribute. Returning an empty set makes the constraint unsatisfiable
// (the context does not apply there).
type ContextResolver func(attr, name string) []message.Value

// ContextDependent reports whether the filter contains an unresolved
// context marker (myloc markers excluded — see LocationDependent).
func (f Filter) ContextDependent() bool {
	for _, c := range f.cs {
		if c.Op == OpContext {
			return true
		}
	}
	return false
}

// Dynamic reports whether the filter needs any resolution before entering
// a routing table (location- or context-dependent).
func (f Filter) Dynamic() bool { return f.LocationDependent() || f.ContextDependent() }

// ResolveContext substitutes every context marker using the resolver.
// Non-context constraints (including myloc markers) pass through.
func (f Filter) ResolveContext(resolve ContextResolver) Filter {
	cs := make([]Constraint, 0, len(f.cs))
	for _, c := range f.cs {
		if c.Op != OpContext {
			cs = append(cs, c)
			continue
		}
		set := resolve(c.Attr, c.Val.Str())
		cs = append(cs, Constraint{Attr: c.Attr, Op: OpIn, Set: set})
	}
	return New(cs...)
}
