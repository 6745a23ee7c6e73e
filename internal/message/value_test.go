package message

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"string", String("hi"), KindString, `"hi"`},
		{"int", Int(-7), KindInt, "-7"},
		{"float", Float(2.5), KindFloat, "2.5"},
		{"bool", Bool(true), KindBool, "true"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if !tt.v.IsValid() {
				t.Error("IsValid() = false, want true")
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestZeroValueInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Error("zero Value should be invalid")
	}
	if v.Kind() != KindInvalid {
		t.Errorf("zero Value kind = %v, want KindInvalid", v.Kind())
	}
	if v.Equal(Int(0)) {
		t.Error("zero Value must not equal Int(0)")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("Int must not equal Bool")
	}
	if String("1").Equal(Int(1)) {
		t.Error("String must not equal Int")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.5), Int(2), 1, true},
		{String("a"), String("b"), -1, true},
		{String("b"), String("b"), 0, true},
		{Bool(true), Bool(false), 0, false},
		{String("a"), Int(1), 0, false},
	}
	for _, tt := range tests {
		cmp, ok := tt.a.Compare(tt.b)
		if cmp != tt.cmp || ok != tt.ok {
			t.Errorf("Compare(%v,%v) = (%d,%v), want (%d,%v)", tt.a, tt.b, cmp, ok, tt.cmp, tt.ok)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, okx := Int(a).Compare(Int(b))
		y, oky := Int(b).Compare(Int(a))
		return okx && oky && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
