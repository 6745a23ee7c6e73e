// Package message defines the data model shared by every layer of the
// middleware: typed attribute values, notifications (messages that reify
// events, §2 of the paper), and the identifier types used across the broker
// overlay.
//
// The package sits at the bottom of the dependency graph: it must not import
// any other rebeca package.
package message

import "strconv"

// Kind enumerates the attribute value types supported by the content-based
// filter language. The zero Kind is invalid so that a zero Value is
// distinguishable from a deliberately constructed one.
type Kind int

// Supported value kinds.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a typed attribute value. It is a small immutable sum type; use
// the String, Int, Float and Bool constructors. The zero Value is invalid
// and matches nothing.
type Value struct {
	kind Kind
	str  string
	num  int64
	flt  float64
	b    bool
}

// String constructs a string-valued attribute.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer-valued attribute.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float constructs a float-valued attribute.
func Float(f float64) Value { return Value{kind: KindFloat, flt: f} }

// Bool constructs a boolean-valued attribute.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value was constructed by one of the typed
// constructors.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.num }

// FloatVal returns the float payload. It is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return v.flt }

// BoolVal returns the boolean payload. It is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// asFloat converts numeric kinds to float64 for cross-kind comparison.
func (v Value) asFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.num), true
	case KindFloat:
		return v.flt, true
	default:
		return 0, false
	}
}

// Numeric reports whether the value is of a numeric kind.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values are equal. Integers and floats compare
// across kinds by numeric value, mirroring the filter language semantics.
func (v Value) Equal(o Value) bool {
	if v.Numeric() && o.Numeric() {
		a, _ := v.asFloat()
		b, _ := o.asFloat()
		return a == b
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.str == o.str
	case KindBool:
		return v.b == o.b
	default:
		return false
	}
}

// Compare orders two values. It returns (-1, 0, +1) and ok=true when the
// values are comparable: both numeric, or both strings. Booleans and
// mixed-kind pairs are not ordered.
func (v Value) Compare(o Value) (cmp int, ok bool) {
	if v.Numeric() && o.Numeric() {
		a, _ := v.asFloat()
		b, _ := o.asFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindString && o.kind == KindString {
		switch {
		case v.str < o.str:
			return -1, true
		case v.str > o.str:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// String renders the value for logs and canonical filter keys.
func (v Value) String() string {
	var scratch [32]byte
	return string(v.Append(scratch[:0]))
}

// Append appends the value's String rendering to dst: strings quoted
// Go-style, floats in the shortest 'g' form.
func (v Value) Append(dst []byte) []byte {
	switch v.kind {
	case KindString:
		return strconv.AppendQuote(dst, v.str)
	case KindInt:
		return strconv.AppendInt(dst, v.num, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.flt, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	default:
		return append(dst, "<invalid>"...)
	}
}
