// Package filter implements the content-based filter language of REBECA
// (§2): boolean-valued predicates over entire notification contents,
// composed into conjunctive filters, together with the covering relation
// used by the routing optimization, and the location
// marker ("myloc") that makes subscriptions location dependent (§1).
package filter

import (
	"strconv"
	"strings"

	"rebeca/internal/message"
)

// Op enumerates the predicate operators available on a single attribute.
// Enums start at one so the zero Op is invalid.
type Op int

// Supported operators.
const (
	OpInvalid Op = iota
	// OpExists matches any notification that carries the attribute.
	OpExists
	// OpEq / OpNe compare for (in)equality of values.
	OpEq
	OpNe
	// Ordering operators require comparable values (numeric or string).
	OpLt
	OpLe
	OpGt
	OpGe
	// String operators require string values.
	OpPrefix
	OpSuffix
	OpContains
	// OpIn matches when the attribute equals any member of Set.
	OpIn
	// OpMyloc is the location-dependent marker (§1): "location ∈ myloc".
	// It never matches by itself; the location layer resolves it into a
	// concrete OpIn set before the filter enters the routing tables.
	OpMyloc
	// OpContext is the generalized state-dependent marker (§4): the Val
	// names the context whose resolved value set replaces the marker.
	OpContext
)

var opNames = [...]string{
	OpExists:   "exists",
	OpEq:       "=",
	OpNe:       "!=",
	OpLt:       "<",
	OpLe:       "<=",
	OpGt:       ">",
	OpGe:       ">=",
	OpPrefix:   "prefix",
	OpSuffix:   "suffix",
	OpContains: "contains",
	OpIn:       "in",
	OpMyloc:    "in-myloc",
	OpContext:  "in-context",
}

// String returns the operator's symbol.
func (o Op) String() string {
	if o > OpInvalid && int(o) < len(opNames) {
		return opNames[o]
	}
	return string(o.appendTo(nil))
}

// appendTo appends the operator's symbol to dst; an undefined operator
// renders as op(<n>).
func (o Op) appendTo(dst []byte) []byte {
	if o > OpInvalid && int(o) < len(opNames) {
		return append(dst, opNames[o]...)
	}
	dst = append(dst, "op("...)
	dst = strconv.AppendInt(dst, int64(o), 10)
	return append(dst, ')')
}

// Constraint is a predicate on one attribute. A filter is a conjunction of
// constraints. The zero Constraint is invalid.
type Constraint struct {
	Attr string
	Op   Op
	// Val is the operand for unary comparison operators.
	Val message.Value
	// Set is the operand for OpIn.
	Set []message.Value
}

// Exists matches notifications carrying the attribute.
func Exists(attr string) Constraint { return Constraint{Attr: attr, Op: OpExists} }

// Eq matches attribute == v.
func Eq(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpEq, Val: v}
}

// Ne matches attribute != v (attribute must be present).
func Ne(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpNe, Val: v}
}

// Lt matches attribute < v.
func Lt(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpLt, Val: v}
}

// Le matches attribute <= v.
func Le(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpLe, Val: v}
}

// Gt matches attribute > v.
func Gt(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpGt, Val: v}
}

// Ge matches attribute >= v.
func Ge(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpGe, Val: v}
}

// Prefix matches string attributes with the given prefix.
func Prefix(attr, p string) Constraint {
	return Constraint{Attr: attr, Op: OpPrefix, Val: message.String(p)}
}

// Suffix matches string attributes with the given suffix.
func Suffix(attr, s string) Constraint {
	return Constraint{Attr: attr, Op: OpSuffix, Val: message.String(s)}
}

// Contains matches string attributes containing the given substring.
func Contains(attr, s string) Constraint {
	return Constraint{Attr: attr, Op: OpContains, Val: message.String(s)}
}

// In matches when the attribute equals any of the given values.
func In(attr string, vs ...message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpIn, Set: vs}
}

// Matches evaluates the constraint against a notification.
func (c Constraint) Matches(n message.Notification) bool {
	v, ok := n.Get(c.Attr)
	return ok && c.matchesValue(v)
}

// matchesValue evaluates the constraint against a single value, as if a
// notification carried exactly that value for the attribute. The pointer
// receiver is for the matching index, which calls this once per candidate
// and must not copy the constraint each time.
func (c *Constraint) matchesValue(v message.Value) bool {
	switch c.Op {
	case OpExists:
		return true
	case OpEq:
		return v.Equal(c.Val)
	case OpNe:
		return !v.Equal(c.Val)
	case OpLt, OpLe, OpGt, OpGe:
		cmp, ok := v.Compare(c.Val)
		if !ok {
			return false
		}
		switch c.Op {
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		default:
			return cmp >= 0
		}
	case OpPrefix:
		return v.Kind() == message.KindString && strings.HasPrefix(v.Str(), c.Val.Str())
	case OpSuffix:
		return v.Kind() == message.KindString && strings.HasSuffix(v.Str(), c.Val.Str())
	case OpContains:
		return v.Kind() == message.KindString && strings.Contains(v.Str(), c.Val.Str())
	case OpIn:
		for _, s := range c.Set {
			if v.Equal(s) {
				return true
			}
		}
		return false
	case OpMyloc, OpContext:
		// Unresolved markers match nothing; they must be resolved by the
		// location/context layer before reaching a routing table.
		return false
	default:
		return false
	}
}

// Covers reports whether c is implied by d — that is, every notification
// matching d also matches c — for constraints on the same attribute. The
// relation is conservative: false negatives are allowed (the routing layer
// then merely forgoes an optimization), false positives are not.
func (c Constraint) Covers(d Constraint) bool {
	if c.Attr != d.Attr {
		return false
	}
	if c.Op == OpExists {
		// Any constraint requires attribute presence.
		return true
	}
	switch c.Op {
	case OpEq:
		switch d.Op {
		case OpEq:
			return c.Val.Equal(d.Val)
		case OpIn:
			return len(d.Set) > 0 && allEqual(d.Set, c.Val)
		}
	case OpNe:
		switch d.Op {
		case OpEq:
			return !c.Val.Equal(d.Val)
		case OpNe:
			return c.Val.Equal(d.Val)
		case OpIn:
			for _, v := range d.Set {
				if c.Val.Equal(v) {
					return false
				}
			}
			return len(d.Set) > 0
		case OpLt, OpLe, OpGt, OpGe:
			// e.g. c: x != 5 covered by d: x < 3.
			return !d.matchesValue(c.Val)
		}
	case OpLt, OpLe, OpGt, OpGe:
		switch d.Op {
		case OpEq:
			return c.matchesValue(d.Val)
		case OpIn:
			if len(d.Set) == 0 {
				return false
			}
			for _, v := range d.Set {
				if !c.matchesValue(v) {
					return false
				}
			}
			return true
		case OpLt, OpLe, OpGt, OpGe:
			return rangeCovers(c, d)
		}
	case OpPrefix:
		switch d.Op {
		case OpEq:
			return c.matchesValue(d.Val)
		case OpPrefix:
			return strings.HasPrefix(d.Val.Str(), c.Val.Str())
		}
	case OpSuffix:
		switch d.Op {
		case OpEq:
			return c.matchesValue(d.Val)
		case OpSuffix:
			return strings.HasSuffix(d.Val.Str(), c.Val.Str())
		}
	case OpContains:
		switch d.Op {
		case OpEq:
			return c.matchesValue(d.Val)
		case OpContains, OpPrefix, OpSuffix:
			return strings.Contains(d.Val.Str(), c.Val.Str())
		}
	case OpIn:
		switch d.Op {
		case OpEq:
			return c.matchesValue(d.Val)
		case OpIn:
			if len(d.Set) == 0 {
				return false
			}
			for _, v := range d.Set {
				if !c.matchesValue(v) {
					return false
				}
			}
			return true
		}
	}
	return false
}

// rangeCovers decides implication between two ordering constraints on the
// same attribute, e.g. "x < 10" covers "x <= 5".
func rangeCovers(c, d Constraint) bool {
	cmp, ok := d.Val.Compare(c.Val)
	if !ok {
		return false
	}
	switch c.Op {
	case OpLt:
		switch d.Op {
		case OpLt:
			return cmp <= 0
		case OpLe:
			return cmp < 0
		}
	case OpLe:
		switch d.Op {
		case OpLt, OpLe:
			return cmp <= 0
		}
	case OpGt:
		switch d.Op {
		case OpGt:
			return cmp >= 0
		case OpGe:
			return cmp > 0
		}
	case OpGe:
		switch d.Op {
		case OpGt, OpGe:
			return cmp >= 0
		}
	}
	return false
}

// String renders the constraint, e.g. `temp <= 21`.
func (c Constraint) String() string {
	var scratch [64]byte
	return string(c.appendTo(scratch[:0]))
}

// appendTo appends the constraint's rendering to dst: `exists(attr)`,
// `attr in myloc`, `attr in ctx:<name>`, `attr in {v1,v2}` or
// `attr <op> <value>`.
func (c *Constraint) appendTo(dst []byte) []byte {
	switch c.Op {
	case OpExists:
		dst = append(dst, "exists("...)
		dst = append(dst, c.Attr...)
		return append(dst, ')')
	case OpMyloc:
		dst = append(dst, c.Attr...)
		return append(dst, " in myloc"...)
	case OpContext:
		dst = append(dst, c.Attr...)
		dst = append(dst, " in ctx:"...)
		return append(dst, c.Val.Str()...)
	case OpIn:
		dst = append(dst, c.Attr...)
		dst = append(dst, " in {"...)
		for i, v := range c.Set {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = v.Append(dst)
		}
		return append(dst, '}')
	default:
		dst = append(dst, c.Attr...)
		dst = append(dst, ' ')
		dst = c.Op.appendTo(dst)
		dst = append(dst, ' ')
		return c.Val.Append(dst)
	}
}

func allEqual(vs []message.Value, v message.Value) bool {
	for _, x := range vs {
		if !x.Equal(v) {
			return false
		}
	}
	return true
}
