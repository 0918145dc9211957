package logic

import (
	"fmt"

	"gem/internal/core"
)

// CountDiff asserts bounds on the difference between the number of
// occurred events of class A and class B in the current history:
// Min ≤ #A − #B ≤ Max. Setting Unbounded for Max drops the upper bound.
// Wrapped in Box it expresses capacity invariants such as a bounded
// buffer's 0 ≤ #Deposit − #Fetch ≤ N.
type CountDiff struct {
	A, B core.ClassRef
	Min  int
	Max  int
	// NoMax drops the upper bound.
	NoMax bool
}

// Eval implements Formula.
func (f CountDiff) Eval(env *Env) bool {
	diff := countOccurred(env, f.A) - countOccurred(env, f.B)
	if diff < f.Min {
		return false
	}
	if !f.NoMax && diff > f.Max {
		return false
	}
	return true
}

func (f CountDiff) String() string {
	if f.NoMax {
		return fmt.Sprintf("%d <= #%s - #%s", f.Min, f.A, f.B)
	}
	return fmt.Sprintf("%d <= #%s - #%s <= %d", f.Min, f.A, f.B, f.Max)
}

func countOccurred(env *Env, ref core.ClassRef) int {
	n := 0
	for _, id := range env.C.EventsOf(ref) {
		if env.H.Has(id) {
			n++
		}
	}
	return n
}

// FIFOValues asserts that the k-th event of class B carries the same
// value as the k-th event of class A, comparing B's parameter PB against
// A's parameter PA, for every k with both events present. Events are
// numbered by their element order (both classes must each live at a
// single element). It expresses a bounded buffer's FIFO delivery: the
// k-th Fetch returns the k-th Deposit's item.
type FIFOValues struct {
	A  core.ClassRef
	PA string
	B  core.ClassRef
	PB string
}

// Eval implements Formula. Only events occurred in the current history
// participate; since the classes are element-ordered, the occurred events
// form a prefix of each numbering.
func (f FIFOValues) Eval(env *Env) bool {
	as := occurredOf(env, f.A)
	bs := occurredOf(env, f.B)
	for k := 0; k < len(bs); k++ {
		if k >= len(as) {
			return false // a B event with no matching A event
		}
		av, _ := env.C.Event(as[k]).Params().Get(f.PA)
		bv, _ := env.C.Event(bs[k]).Params().Get(f.PB)
		if av.IsZero() || bv.IsZero() || av != bv {
			return false
		}
	}
	return true
}

func (f FIFOValues) String() string {
	return fmt.Sprintf("fifo(%s.%s -> %s.%s)", f.A, f.PA, f.B, f.PB)
}

// occurredOf returns the occurred events of the class in element order
// (id order coincides with element order per element; classes are
// expected to be element-qualified).
func occurredOf(env *Env, ref core.ClassRef) []core.EventID {
	var out []core.EventID
	for _, id := range env.C.EventsOf(ref) {
		if env.H.Has(id) {
			out = append(out, id)
		}
	}
	return out
}
