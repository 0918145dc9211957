package logic

import (
	"fmt"

	"gem/internal/core"
)

// TrueF is the formula that always holds.
type TrueF struct{}

// Eval implements Formula.
func (TrueF) Eval(*Env) bool { return true }
func (TrueF) String() string { return "true" }

// FalseF is the formula that never holds.
type FalseF struct{}

// Eval implements Formula.
func (FalseF) Eval(*Env) bool { return false }
func (FalseF) String() string { return "false" }

// Occurred asserts that the event bound to Var has occurred in the current
// history.
type Occurred struct{ Var string }

// Eval implements Formula.
func (f Occurred) Eval(env *Env) bool { return env.H.Has(mustEvent(env, f.Var)) }
func (f Occurred) String() string     { return fmt.Sprintf("occurred(%s)", f.Var) }

// AtElement asserts e @ EL: the event occurs at the named element.
type AtElement struct {
	Var     string
	Element string
}

// Eval implements Formula.
func (f AtElement) Eval(env *Env) bool {
	return env.C.Event(mustEvent(env, f.Var)).Element() == f.Element
}
func (f AtElement) String() string { return fmt.Sprintf("%s @ %s", f.Var, f.Element) }

// InClass asserts that the bound event belongs to the referenced event
// class.
type InClass struct {
	Var string
	Ref core.ClassRef
}

// Eval implements Formula.
func (f InClass) Eval(env *Env) bool {
	return f.Ref.Matches(env.C.Event(mustEvent(env, f.Var)))
}
func (f InClass) String() string { return fmt.Sprintf("%s : %s", f.Var, f.Ref) }

// Enables asserts X ⊳ Y (direct enablement). Both events must have
// occurred for the relation to be observable within a history; outside a
// history context the structural relation is used.
type Enables struct{ X, Y string }

// Eval implements Formula.
func (f Enables) Eval(env *Env) bool {
	return env.C.EnablesDirect(mustEvent(env, f.X), mustEvent(env, f.Y))
}
func (f Enables) String() string { return fmt.Sprintf("%s |> %s", f.X, f.Y) }

// ElemOrdered asserts X ⇒ₑ Y (element order).
type ElemOrdered struct{ X, Y string }

// Eval implements Formula.
func (f ElemOrdered) Eval(env *Env) bool {
	return env.C.ElemBefore(mustEvent(env, f.X), mustEvent(env, f.Y))
}
func (f ElemOrdered) String() string { return fmt.Sprintf("%s =>el %s", f.X, f.Y) }

// Precedes asserts X ⇒ Y (temporal order).
type Precedes struct{ X, Y string }

// Eval implements Formula.
func (f Precedes) Eval(env *Env) bool {
	return env.C.Temporal(mustEvent(env, f.X), mustEvent(env, f.Y))
}
func (f Precedes) String() string { return fmt.Sprintf("%s => %s", f.X, f.Y) }

// ConcurrentWith asserts that X and Y are potentially concurrent.
type ConcurrentWith struct{ X, Y string }

// Eval implements Formula.
func (f ConcurrentWith) Eval(env *Env) bool {
	return env.C.Concurrent(mustEvent(env, f.X), mustEvent(env, f.Y))
}
func (f ConcurrentWith) String() string { return fmt.Sprintf("%s || %s", f.X, f.Y) }

// SameEvent asserts X = Y.
type SameEvent struct{ X, Y string }

// Eval implements Formula.
func (f SameEvent) Eval(env *Env) bool {
	return mustEvent(env, f.X) == mustEvent(env, f.Y)
}
func (f SameEvent) String() string { return fmt.Sprintf("%s = %s", f.X, f.Y) }

// CmpOp is a comparison operator for parameter values.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

func (op CmpOp) apply(a, b core.Value) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a.Less(b)
	case OpLe:
		return a == b || a.Less(b)
	case OpGt:
		return b.Less(a)
	case OpGe:
		return a == b || b.Less(a)
	default:
		return false
	}
}

// ParamCmp compares parameter P of event X against parameter Q of event Y,
// e.g. the paper's send.par1 = receive.par2. A missing parameter fails the
// comparison.
type ParamCmp struct {
	X, P string
	Op   CmpOp
	Y, Q string
}

// Eval implements Formula.
func (f ParamCmp) Eval(env *Env) bool {
	a, _ := env.C.Event(mustEvent(env, f.X)).Params().Get(f.P)
	b, _ := env.C.Event(mustEvent(env, f.Y)).Params().Get(f.Q)
	if a.IsZero() || b.IsZero() {
		return false
	}
	return f.Op.apply(a, b)
}
func (f ParamCmp) String() string {
	return fmt.Sprintf("%s.%s %s %s.%s", f.X, f.P, f.Op, f.Y, f.Q)
}

// ParamConst compares parameter P of event X against a constant.
type ParamConst struct {
	X, P string
	Op   CmpOp
	V    core.Value
}

// Eval implements Formula.
func (f ParamConst) Eval(env *Env) bool {
	a, _ := env.C.Event(mustEvent(env, f.X)).Params().Get(f.P)
	if a.IsZero() {
		return false
	}
	return f.Op.apply(a, f.V)
}
func (f ParamConst) String() string {
	return fmt.Sprintf("%s.%s %s %s", f.X, f.P, f.Op, f.V)
}

// New asserts the paper's new(e): e occurred and nothing has observably
// followed it in the current history.
type New struct{ Var string }

// Eval implements Formula.
func (f New) Eval(env *Env) bool { return env.H.New(mustEvent(env, f.Var)) }
func (f New) String() string     { return fmt.Sprintf("new(%s)", f.Var) }

// Potential asserts that the event could legally extend the current
// history (all temporal predecessors occurred; the event itself has not).
type Potential struct{ Var string }

// Eval implements Formula.
func (f Potential) Eval(env *Env) bool { return env.H.Potential(mustEvent(env, f.Var)) }
func (f Potential) String() string     { return fmt.Sprintf("potential(%s)", f.Var) }

// AtControl asserts the paper's "e at E2": e occurred and has not enabled
// an event of the referenced class within the current history.
type AtControl struct {
	Var string
	Ref core.ClassRef
}

// Eval implements Formula.
func (f AtControl) Eval(env *Env) bool {
	return env.H.At(mustEvent(env, f.Var), f.Ref)
}
func (f AtControl) String() string { return fmt.Sprintf("%s at %s", f.Var, f.Ref) }

// OnThread asserts that event X is labelled with the thread instance bound
// to thread variable T.
type OnThread struct {
	X string
	T string
}

// Eval implements Formula.
func (f OnThread) Eval(env *Env) bool {
	return env.C.Event(mustEvent(env, f.X)).HasThread(mustThread(env, f.T))
}
func (f OnThread) String() string { return fmt.Sprintf("%s in %s", f.X, f.T) }

// ThreadsDistinct asserts that two bound thread variables denote different
// thread instances.
type ThreadsDistinct struct{ T1, T2 string }

// Eval implements Formula.
func (f ThreadsDistinct) Eval(env *Env) bool {
	return mustThread(env, f.T1) != mustThread(env, f.T2)
}
func (f ThreadsDistinct) String() string { return fmt.Sprintf("%s != %s", f.T1, f.T2) }
