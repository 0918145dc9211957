package logic

import "strings"

// Not negates a formula.
type Not struct{ F Formula }

// Eval implements Formula.
func (f Not) Eval(env *Env) bool { return !f.F.Eval(env) }
func (f Not) String() string     { return "~(" + f.F.String() + ")" }

// And is n-ary conjunction.
type And []Formula

// Eval implements Formula.
func (f And) Eval(env *Env) bool {
	for _, sub := range f {
		if !sub.Eval(env) {
			return false
		}
	}
	return true
}
func (f And) String() string { return joinFormulas(f, " & ") }

// Or is n-ary disjunction.
type Or []Formula

// Eval implements Formula.
func (f Or) Eval(env *Env) bool {
	for _, sub := range f {
		if sub.Eval(env) {
			return true
		}
	}
	return false
}
func (f Or) String() string { return joinFormulas(f, " | ") }

// Implies is material implication.
type Implies struct{ If, Then Formula }

// Eval implements Formula.
func (f Implies) Eval(env *Env) bool { return !f.If.Eval(env) || f.Then.Eval(env) }
func (f Implies) String() string {
	return "(" + f.If.String() + " -> " + f.Then.String() + ")"
}

// Iff is logical equivalence.
type Iff struct{ A, B Formula }

// Eval implements Formula.
func (f Iff) Eval(env *Env) bool { return f.A.Eval(env) == f.B.Eval(env) }
func (f Iff) String() string {
	return "(" + f.A.String() + " <-> " + f.B.String() + ")"
}

func joinFormulas(fs []Formula, sep string) string {
	if len(fs) == 0 {
		if sep == " & " {
			return "true"
		}
		return "false"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Box is the temporal operator □ (henceforth): the body holds at every
// position from the current one onward in the enclosing history sequence.
// Outside a sequence (computation-level evaluation at a single history) it
// degenerates to the body at the current history.
type Box struct{ F Formula }

// Eval implements Formula.
func (f Box) Eval(env *Env) bool {
	return !somePosition(env, f.F, false)
}
func (f Box) String() string { return "[](" + f.F.String() + ")" }

// Diamond is the temporal operator ◇ (eventually): the body holds at some
// position from the current one onward.
type Diamond struct{ F Formula }

// Eval implements Formula.
func (f Diamond) Eval(env *Env) bool {
	return somePosition(env, f.F, true)
}
func (f Diamond) String() string { return "<>(" + f.F.String() + ")" }

// somePosition reports whether f evaluates to want at some position from
// the current one onward, trying them in order and stopping at the first;
// outside a sequence the current history is the only position. The
// position is moved in place and restored on every return path.
func somePosition(env *Env, f Formula, want bool) bool {
	if env.Seq == nil {
		return f.Eval(env) == want
	}
	idx, h := env.Idx, env.H
	found := false
	for i := idx; i < len(env.Seq) && !found; i++ {
		env.Idx, env.H = i, env.Seq[i]
		found = f.Eval(env) == want
	}
	env.Idx, env.H = idx, h
	return found
}

// HasTemporal reports whether the formula contains a Box or Diamond
// operator anywhere; such formulae must be checked over history sequences
// rather than a single history.
func HasTemporal(f Formula) bool {
	switch g := f.(type) {
	case Box, Diamond:
		return true
	case Not:
		return HasTemporal(g.F)
	case And:
		for _, sub := range g {
			if HasTemporal(sub) {
				return true
			}
		}
	case Or:
		for _, sub := range g {
			if HasTemporal(sub) {
				return true
			}
		}
	case Implies:
		return HasTemporal(g.If) || HasTemporal(g.Then)
	case Iff:
		return HasTemporal(g.A) || HasTemporal(g.B)
	case ForAll:
		return HasTemporal(g.Body)
	case Exists:
		return HasTemporal(g.Body)
	case ExistsUnique:
		return HasTemporal(g.Body)
	case AtMostOne:
		return HasTemporal(g.Body)
	case ForAllThread:
		return HasTemporal(g.Body)
	case ExistsThread:
		return HasTemporal(g.Body)
	case ForAllIn:
		return HasTemporal(g.Body)
	case ExistsUniqueIn:
		return HasTemporal(g.Body)
	}
	return false
}

// HasHistoryPredicate reports whether the formula contains a predicate
// whose truth depends on the current history (occurred, new, potential,
// at). Formulae without these and without temporal operators are purely
// structural and may be evaluated once on the full computation.
func HasHistoryPredicate(f Formula) bool {
	switch g := f.(type) {
	case Occurred, New, Potential, AtControl, CountDiff, FIFOValues:
		return true
	case Box:
		return HasHistoryPredicate(g.F)
	case Diamond:
		return HasHistoryPredicate(g.F)
	case Not:
		return HasHistoryPredicate(g.F)
	case And:
		for _, sub := range g {
			if HasHistoryPredicate(sub) {
				return true
			}
		}
	case Or:
		for _, sub := range g {
			if HasHistoryPredicate(sub) {
				return true
			}
		}
	case Implies:
		return HasHistoryPredicate(g.If) || HasHistoryPredicate(g.Then)
	case Iff:
		return HasHistoryPredicate(g.A) || HasHistoryPredicate(g.B)
	case ForAll:
		return HasHistoryPredicate(g.Body)
	case Exists:
		return HasHistoryPredicate(g.Body)
	case ExistsUnique:
		return HasHistoryPredicate(g.Body)
	case AtMostOne:
		return HasHistoryPredicate(g.Body)
	case ForAllThread:
		return HasHistoryPredicate(g.Body)
	case ExistsThread:
		return HasHistoryPredicate(g.Body)
	case ForAllIn:
		return HasHistoryPredicate(g.Body)
	case ExistsUniqueIn:
		return HasHistoryPredicate(g.Body)
	}
	return false
}
