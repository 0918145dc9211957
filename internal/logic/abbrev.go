package logic

import (
	"fmt"
	"strings"

	"gem/internal/core"
)

// This file implements the paper's restriction abbreviations (Section
// 8.2): prerequisite, nondeterministic prerequisite, event FORK and JOIN.
// Each names a common computational pattern and expands to a first-order
// restriction over the enable relation.
//
// Note on occurred(): the paper writes occurred(e2) ⊃ … in these
// definitions. Because enable edges are structural and e1 ⊳ e2 implies
// e1 ⇒ e2, every history containing e2 also contains its enabler, so the
// expansions below are equivalent to the paper's forms while remaining
// purely structural (checkable once per computation).

// ExistsUniqueIn is ∃! quantification over the union of several event
// classes — needed by the nondeterministic prerequisite.
type ExistsUniqueIn struct {
	Var  string
	Refs []core.ClassRef
	Body Formula
}

// Eval implements Formula.
func (f ExistsUniqueIn) Eval(env *Env) bool {
	return countEvents(env, f.Var, unionDomain(env, f.Refs), f.Body) == 1
}
func (f ExistsUniqueIn) String() string {
	return fmt.Sprintf("(EXISTS1 %s: {%s}) %s", f.Var, refList(f.Refs), f.Body)
}

// ForAllIn is universal quantification over the union of several event
// classes.
type ForAllIn struct {
	Var  string
	Refs []core.ClassRef
	Body Formula
}

// Eval implements Formula.
func (f ForAllIn) Eval(env *Env) bool {
	return !someEvent(env, f.Var, unionDomain(env, f.Refs), f.Body, false)
}
func (f ForAllIn) String() string {
	return fmt.Sprintf("(FORALL %s: {%s}) %s", f.Var, refList(f.Refs), f.Body)
}

func unionDomain(env *Env, refs []core.ClassRef) []core.EventID {
	var out []core.EventID
	seen := make(map[core.EventID]bool)
	for _, ref := range refs {
		for _, id := range env.C.EventsOf(ref) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

func refList(refs []core.ClassRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	return strings.Join(parts, ", ")
}

// Prereq builds the paper's E1 → E2: every E2 event is enabled by exactly
// one E1 event, and every E1 event enables at most one E2 event.
func Prereq(e1, e2 core.ClassRef) Formula {
	return And{
		ForAll{Var: "_e2", Ref: e2, Body: ExistsUnique{
			Var: "_e1", Ref: e1, Body: Enables{X: "_e1", Y: "_e2"},
		}},
		ForAll{Var: "_e1", Ref: e1, Body: AtMostOne{
			Var: "_e2", Ref: e2, Body: Enables{X: "_e1", Y: "_e2"},
		}},
	}
}

// PrereqChain builds E1 → E2 → … → En as a conjunction of pairwise
// prerequisites, the way the paper strings together sequential code.
func PrereqChain(refs ...core.ClassRef) Formula {
	var out And
	for i := 1; i < len(refs); i++ {
		out = append(out, Prereq(refs[i-1], refs[i]))
	}
	return out
}

// NDPrereq builds the paper's {E…} → E: every E event is enabled by
// exactly one event drawn from the class set, and each event of the set
// enables at most one E event.
func NDPrereq(set []core.ClassRef, e core.ClassRef) Formula {
	conj := And{
		ForAll{Var: "_e", Ref: e, Body: ExistsUniqueIn{
			Var: "_src", Refs: set, Body: Enables{X: "_src", Y: "_e"},
		}},
		ForAllIn{Var: "_src", Refs: set, Body: AtMostOne{
			Var: "_e", Ref: e, Body: Enables{X: "_src", Y: "_e"},
		}},
	}
	return conj
}

// Fork builds the paper's event FORK E → {E…}: E is a prerequisite of each
// class in the set.
func Fork(e core.ClassRef, set []core.ClassRef) Formula {
	var out And
	for _, target := range set {
		out = append(out, Prereq(e, target))
	}
	return out
}

// Join builds the paper's event JOIN {E…} → E: each class in the set is a
// prerequisite of E.
func Join(set []core.ClassRef, e core.ClassRef) Formula {
	var out And
	for _, src := range set {
		out = append(out, Prereq(src, e))
	}
	return out
}
