package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/thread"
)

// This file implements the emptiness-guard calculus: a syntactic analysis
// that, for a restriction formula f, finds sets of event classes and
// thread types ("guards") whose absence from a computation decides f
// outright — in every environment, at every history and sequence
// position. The soundness argument rests on one fact about the dynamic
// semantics: quantifier domains are computation-wide (logic.classDomain
// is env.C.EventsOf, logic.threadDomain scans event labels), so a ForAll
// over a class with no events is true and an Exists is false regardless
// of the body, in every env sharing that computation.
//
// GEM009 is its one client: when every class of some false guard is
// statically unproducible, the restriction is false on every legal
// computation, so the specification admits none. falseGuards recurses
// into validGuards through negations and implications.

// maxGuardAlts caps the alternatives tracked per formula; the cross
// products below (And for valid, Or for false) are the only growth
// points. Dropping alternatives is sound — guards are sufficient
// conditions, never necessary ones.
const maxGuardAlts = 16

// guardSet is one emptiness condition: every listed class reference must
// have no events in the computation, and no event may carry a label of a
// listed thread type. The empty guardSet is the trivially-satisfied
// condition (the formula is a tautology, resp. unsatisfiable).
type guardSet struct {
	refs    []core.ClassRef
	threads []string
}

func (g guardSet) withRef(refs ...core.ClassRef) guardSet {
	out := guardSet{refs: append([]core.ClassRef(nil), refs...)}
	return out.normalize()
}

func (g guardSet) withThread(t string) guardSet {
	return guardSet{threads: []string{t}}
}

// normalize sorts and dedups, so structurally equal guards compare equal.
func (g guardSet) normalize() guardSet {
	slices.SortFunc(g.refs, func(a, b core.ClassRef) int {
		return cmp.Or(strings.Compare(a.Element, b.Element), strings.Compare(a.Class, b.Class))
	})
	g.refs = slices.Compact(g.refs)
	slices.Sort(g.threads)
	g.threads = slices.Compact(g.threads)
	return g
}

// mergeGuards unions two emptiness conditions (both must hold).
func mergeGuards(a, b guardSet) guardSet {
	return guardSet{
		refs:    append(append([]core.ClassRef(nil), a.refs...), b.refs...),
		threads: append(append([]string(nil), a.threads...), b.threads...),
	}.normalize()
}

// crossGuards pairs every alternative of a with every alternative of b
// (conjunction of conditions), capped at maxGuardAlts.
func crossGuards(a, b []guardSet) []guardSet {
	var out []guardSet
	for _, ga := range a {
		for _, gb := range b {
			out = append(out, mergeGuards(ga, gb))
			if len(out) >= maxGuardAlts {
				return out
			}
		}
	}
	return out
}

// unionAlts concatenates alternative lists (disjunction of conditions),
// capped at maxGuardAlts.
func unionAlts(lists ...[]guardSet) []guardSet {
	var out []guardSet
	for _, l := range lists {
		for _, g := range l {
			out = append(out, g)
			if len(out) >= maxGuardAlts {
				return out
			}
		}
	}
	return out
}

// validGuards returns alternative guards, each sufficient for f to be
// TRUE in every environment over a computation empty on the guard. An
// empty result means the calculus cannot decide f by emptiness; a result
// containing the empty guardSet means f is a tautology.
func validGuards(f logic.Formula) []guardSet {
	switch g := f.(type) {
	case logic.TrueF:
		return []guardSet{{}}
	case logic.ForAll:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ForAllIn:
		return []guardSet{guardSet{}.withRef(g.Refs...)}
	case logic.AtMostOne:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ForAllThread:
		return []guardSet{guardSet{}.withThread(g.Type)}
	case logic.Not:
		return falseGuards(g.F)
	case logic.And:
		// Every conjunct must be decided true under one combined guard.
		alts := []guardSet{{}}
		for _, sub := range g {
			alts = crossGuards(alts, validGuards(sub))
			if len(alts) == 0 {
				return nil
			}
		}
		return alts
	case logic.Or:
		var lists [][]guardSet
		for _, sub := range g {
			lists = append(lists, validGuards(sub))
		}
		return unionAlts(lists...)
	case logic.Implies:
		return unionAlts(falseGuards(g.If), validGuards(g.Then))
	case logic.Iff:
		return unionAlts(
			crossGuards(validGuards(g.A), validGuards(g.B)),
			crossGuards(falseGuards(g.A), falseGuards(g.B)))
	case logic.Box:
		// □φ is true when φ holds at every position; a guard making φ
		// true in every env does exactly that.
		return validGuards(g.F)
	case logic.Diamond:
		// Sequences are non-empty, so always-true φ is eventually true.
		return validGuards(g.F)
	case logic.CountDiff:
		if g.Min <= 0 && (g.NoMax || g.Max >= 0) {
			return []guardSet{guardSet{}.withRef(g.A, g.B)}
		}
		return nil
	case logic.FIFOValues:
		// With no B events the pairing loop is empty and the check holds.
		return []guardSet{guardSet{}.withRef(g.B)}
	default:
		return nil
	}
}

// falseGuards returns alternative guards, each sufficient for f to be
// FALSE in every environment over a computation empty on the guard. A
// result containing the empty guardSet means f is unsatisfiable outright.
func falseGuards(f logic.Formula) []guardSet {
	switch g := f.(type) {
	case logic.FalseF:
		return []guardSet{{}}
	case logic.Exists:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ExistsUnique:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ExistsUniqueIn:
		return []guardSet{guardSet{}.withRef(g.Refs...)}
	case logic.ExistsThread:
		return []guardSet{guardSet{}.withThread(g.Type)}
	case logic.Not:
		return validGuards(g.F)
	case logic.And:
		var lists [][]guardSet
		for _, sub := range g {
			lists = append(lists, falseGuards(sub))
		}
		return unionAlts(lists...)
	case logic.Or:
		// Every disjunct must be decided false under one combined guard.
		alts := []guardSet{{}}
		for _, sub := range g {
			alts = crossGuards(alts, falseGuards(sub))
			if len(alts) == 0 {
				return nil
			}
		}
		return alts
	case logic.Implies:
		return crossGuards(validGuards(g.If), falseGuards(g.Then))
	case logic.Iff:
		return unionAlts(
			crossGuards(validGuards(g.A), falseGuards(g.B)),
			crossGuards(falseGuards(g.A), validGuards(g.B)))
	case logic.Box:
		// Always-false φ fails at the first position of every sequence.
		return falseGuards(g.F)
	case logic.Diamond:
		return falseGuards(g.F)
	case logic.CountDiff:
		if g.Min > 0 || (!g.NoMax && g.Max < 0) {
			return []guardSet{guardSet{}.withRef(g.A, g.B)}
		}
		return nil
	default:
		return nil
	}
}

func (gs guardSet) String() string {
	parts := make([]string, 0, len(gs.refs)+len(gs.threads))
	for _, r := range gs.refs {
		parts = append(parts, r.String())
	}
	for _, t := range gs.threads {
		parts = append(parts, "thread "+t)
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// checkContradiction reports GEM009: a restriction that is false on
// every legal computation, because some emptiness guard falsifying it
// names only classes (and thread types) the producibility fixpoint
// proved no legal computation can contain. The specification then has no
// satisfying computation at all — every verification against it is
// vacuously "correct", which is worth an error, not a warning.
func (a *analysis) checkContradiction(g *pairGraph) {
	paths := thread.PathsByType(a.s.Threads())
	for _, r := range a.s.Restrictions() {
		for _, alt := range falseGuards(r.F) {
			if !guardUnsatisfiable(g, paths, alt) {
				continue
			}
			msg := "statically unsatisfiable restriction set: the formula is false in every computation"
			if len(alt.refs) > 0 || len(alt.threads) > 0 {
				msg = fmt.Sprintf("statically unsatisfiable restriction set: requires %s, but no legal computation contains such events",
					alt.String())
			}
			a.errAt(a.posOf(inRestriction, r.Name), CodeContradiction,
				restrictionSubject(r.Owner, r.Name), "%s", msg)
			break
		}
	}
}

// guardUnsatisfiable reports whether the emptiness condition necessarily
// holds on every legal computation: each guarded class resolves only to
// unproducible pairs, and each guarded thread type is declared with
// every alternative path headed by an unproducible class (so no instance
// can ever start). Dangling references and undeclared thread types are
// excluded — their defects are GEM001/GEM002/GEM007 territory and they
// say nothing about legal computations.
func guardUnsatisfiable(g *pairGraph, paths map[string][][]core.ClassRef, gs guardSet) bool {
	for _, ref := range gs.refs {
		if !g.unproducible(ref) {
			return false
		}
	}
	for _, t := range gs.threads {
		alts, declared := paths[t]
		if !declared {
			return false
		}
		for _, path := range alts {
			if !g.unproducible(path[0]) {
				return false
			}
		}
	}
	return true
}
