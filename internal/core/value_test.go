package core

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	tests := []struct {
		give Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Str("hi"), `"hi"`},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Value{}, "<none>"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%#v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestValueIsZero(t *testing.T) {
	if !(Value{}).IsZero() {
		t.Error("zero Value should be IsZero")
	}
	if Int(0).IsZero() || Str("").IsZero() || Bool(false).IsZero() {
		t.Error("typed zero values are not IsZero")
	}
}

func TestValueEquality(t *testing.T) {
	if Int(1) != Int(1) || Str("a") != Str("a") || Bool(true) != Bool(true) {
		t.Error("same-kind same-value must compare equal")
	}
	if Int(1) == Int(2) || Int(0) == Bool(false) || Str("") == (Value{}) {
		t.Error("distinct values must compare unequal")
	}
}

func TestValueLess(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(2), true},
		{Int(2), Int(1), false},
		{Int(1), Int(1), false},
		{Str("a"), Str("b"), true},
		{Bool(false), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Int(99), Str(""), true}, // cross-kind: by kind
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("(%v).Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: Less is a strict weak ordering on ints (irreflexive,
// asymmetric, transitive on sampled triples).
func TestValueLessQuick(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Int(a), Int(b), Int(c)
		if va.Less(va) {
			return false
		}
		if va.Less(vb) && vb.Less(va) {
			return false
		}
		if va.Less(vb) && vb.Less(vc) && !va.Less(vc) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewParamsSortedPrivateCopy pins the constructor's contract: the
// list is sorted by name, a repeated name keeps its later value as a map
// assignment would, and the caller's slice is copied, not kept.
func TestNewParamsSortedPrivateCopy(t *testing.T) {
	in := []Param{P("x", Int(1)), P("b", Str("first")), P("a", Bool(true)), P("b", Str("last"))}
	p := NewParams(in...)
	in[0] = P("x", Int(99))
	want := []Param{P("a", Bool(true)), P("b", Str("last")), P("x", Int(1))}
	if p.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(want))
	}
	for i, w := range want {
		if got := p.At(i); got != w {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
	if v, ok := p.Get("x"); !ok || v != Int(1) {
		t.Errorf("Get(x) = %v, %v; want 1, true (the caller's later write must not show)", v, ok)
	}
	if v, ok := p.Get("missing"); ok || !v.IsZero() {
		t.Errorf("Get(missing) = %v, %v; want zero, false", v, ok)
	}
	var zero Params
	if zero.Len() != 0 || NewParams().Len() != 0 {
		t.Error("the zero value and NewParams() must be empty")
	}
}

func TestParamsStringDeterministic(t *testing.T) {
	p := NewParams(P("b", Int(2)), P("a", Int(1)), P("c", Str("x")))
	want := `(a=1, b=2, c="x")`
	for i := 0; i < 10; i++ {
		if got := p.String(); got != want {
			t.Fatalf("Params.String = %q, want %q", got, want)
		}
	}
	if got := (Params{}).String(); got != "" {
		t.Errorf("empty Params.String = %q, want empty", got)
	}
}
