// Package core implements the GEM (Group Element Model) model of concurrent
// computation from Lansky & Owicki (1983): events, elements, groups, the
// enable relation, the element order, and the temporal order (the
// transitive closure of the former two, minus identity).
//
// A Computation is built incrementally with a Builder; Build derives and
// validates the temporal order. Group structure lives in a Universe, which
// answers the access/contained queries that constrain legal enable edges.
package core

import (
	"slices"
	"strconv"
	"strings"
)

// ValueKind discriminates the kinds of data that may ride on an event
// parameter.
type ValueKind int

// The supported parameter value kinds.
const (
	KindInt ValueKind = iota + 1
	KindString
	KindBool
)

// Value is an event parameter value. Values are comparable with == and
// usable as map keys.
type Value struct {
	Kind ValueKind
	I    int64
	S    string
	B    bool
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Str returns a string Value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsZero reports whether v is the zero Value (no kind).
func (v Value) IsZero() bool { return v.Kind == 0 }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindString:
		return strconv.Quote(v.S)
	case KindBool:
		return strconv.FormatBool(v.B)
	default:
		return "<none>"
	}
}

// Less imposes a total order on values of the same kind (ints by value,
// strings lexicographically, false < true). Cross-kind comparisons order by
// kind, which keeps sorting deterministic.
func (v Value) Less(other Value) bool {
	if v.Kind != other.Kind {
		return v.Kind < other.Kind
	}
	switch v.Kind {
	case KindInt:
		return v.I < other.I
	case KindString:
		return v.S < other.S
	case KindBool:
		return !v.B && other.B
	default:
		return false
	}
}

// Param is one named parameter value.
type Param struct {
	Name  string
	Value Value
}

// P returns the parameter name = v.
func P(name string, v Value) Param { return Param{Name: name, Value: v} }

// Params is the immutable list of named parameter values attached to an
// event, sorted by name with unique names. The zero value is the empty
// list. No method hands out the backing array, so one list can be shared
// by reference: every computation built from an explored run carries the
// list its simulator emitted, without copying it.
type Params struct {
	list []Param
}

// NewParams returns ps sorted by name, in a private copy. When a name
// appears more than once, the later value wins, as in a map assignment.
func NewParams(ps ...Param) Params {
	if len(ps) == 0 {
		return Params{}
	}
	list := make([]Param, len(ps))
	copy(list, ps)
	slices.SortStableFunc(list, func(a, b Param) int { return strings.Compare(a.Name, b.Name) })
	out := list[:0]
	for i, p := range list {
		if i+1 < len(list) && list[i+1].Name == p.Name {
			continue
		}
		out = append(out, p)
	}
	return Params{list: out}
}

// Get returns the value of the named parameter and whether it is set.
func (p Params) Get(name string) (Value, bool) {
	for _, q := range p.list {
		if q.Name == name {
			return q.Value, true
		}
	}
	return Value{}, false
}

// Len returns the number of parameters.
func (p Params) Len() int { return len(p.list) }

// At returns the i'th parameter in name order.
func (p Params) At(i int) Param { return p.list[i] }

// String renders the parameters in name order for diagnostics.
func (p Params) String() string {
	if len(p.list) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('(')
	for i, q := range p.list {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(q.Name)
		sb.WriteByte('=')
		sb.WriteString(q.Value.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
