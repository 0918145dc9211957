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

// Params is a set of named parameter values attached to an event.
type Params map[string]Value

// Clone returns an independent copy.
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// String renders parameters deterministically for diagnostics.
func (p Params) String() string {
	if len(p) == 0 {
		return ""
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var sb strings.Builder
	sb.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(p[k].String())
	}
	sb.WriteByte(')')
	return sb.String()
}
