package lint

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
)

// binders tracks quantifier bindings while walking a restriction formula.
// An event variable may be bound over the union of several classes
// (ExistsUniqueIn / ForAllIn), hence the slice.
type binders struct {
	events  map[string][]core.ClassRef
	threads map[string]string // thread variable -> thread type
}

func (b binders) bindEvent(v string, refs ...core.ClassRef) binders {
	ev := make(map[string][]core.ClassRef, len(b.events)+1)
	for k, r := range b.events {
		ev[k] = r
	}
	ev[v] = refs
	return binders{events: ev, threads: b.threads}
}

func (b binders) bindThread(v, tt string) binders {
	th := make(map[string]string, len(b.threads)+1)
	for k, t := range b.threads {
		th[k] = t
	}
	th[v] = tt
	return binders{events: b.events, threads: th}
}

// checkRestrictions walks every restriction formula, validating class and
// parameter references (GEM001/002/003), variable bindings (GEM008),
// thread quantifier domains and implication antecedents (GEM007).
func (a *analysis) checkRestrictions() {
	for _, r := range a.s.Restrictions() {
		pos := a.posOf(inRestriction, r.Name)
		subject := restrictionSubject(r.Owner, r.Name)
		a.walk(r.F, binders{}, pos, subject)
	}
}

func (a *analysis) walk(f logic.Formula, env binders, pos Pos, subject string) {
	switch g := f.(type) {
	case logic.TrueF, logic.FalseF:
	case logic.Occurred:
		a.useEventVar(env, g.Var, pos, subject)
	case logic.New:
		a.useEventVar(env, g.Var, pos, subject)
	case logic.Potential:
		a.useEventVar(env, g.Var, pos, subject)
	case logic.AtElement:
		a.useEventVar(env, g.Var, pos, subject)
		if _, ok := a.s.Element(g.Element); !ok {
			a.errAt(pos, CodeDanglingElement, subject,
				"reference to undeclared element %q", g.Element)
		} else {
			a.markElementUsed(g.Element)
		}
	case logic.InClass:
		a.useEventVar(env, g.Var, pos, subject)
		a.checkRef(pos, subject, g.Ref)
	case logic.AtControl:
		a.useEventVar(env, g.Var, pos, subject)
		a.checkRef(pos, subject, g.Ref)
	case logic.Enables:
		a.useEventVar(env, g.X, pos, subject)
		a.useEventVar(env, g.Y, pos, subject)
	case logic.ElemOrdered:
		a.useEventVar(env, g.X, pos, subject)
		a.useEventVar(env, g.Y, pos, subject)
	case logic.Precedes:
		a.useEventVar(env, g.X, pos, subject)
		a.useEventVar(env, g.Y, pos, subject)
	case logic.ConcurrentWith:
		a.useEventVar(env, g.X, pos, subject)
		a.useEventVar(env, g.Y, pos, subject)
	case logic.SameEvent:
		a.useEventVar(env, g.X, pos, subject)
		a.useEventVar(env, g.Y, pos, subject)
	case logic.ParamCmp:
		a.useParam(env, g.X, g.P, pos, subject)
		a.useParam(env, g.Y, g.Q, pos, subject)
	case logic.ParamConst:
		a.useParam(env, g.X, g.P, pos, subject)
	case logic.OnThread:
		a.useEventVar(env, g.X, pos, subject)
		a.useThreadVar(env, g.T, pos, subject)
	case logic.ThreadsDistinct:
		a.useThreadVar(env, g.T1, pos, subject)
		a.useThreadVar(env, g.T2, pos, subject)
	case logic.CountDiff:
		a.checkRef(pos, subject, g.A)
		a.checkRef(pos, subject, g.B)
	case logic.FIFOValues:
		if a.checkRef(pos, subject, g.A) {
			a.checkRefParam(g.A, g.PA, pos, subject)
		}
		if a.checkRef(pos, subject, g.B) {
			a.checkRefParam(g.B, g.PB, pos, subject)
		}
	case logic.Not:
		a.walk(g.F, env, pos, subject)
	case logic.And:
		for _, sub := range g {
			a.walk(sub, env, pos, subject)
		}
	case logic.Or:
		for _, sub := range g {
			a.walk(sub, env, pos, subject)
		}
	case logic.Implies:
		if reason := a.unsat(g.If, env); reason != "" {
			a.warnAt(pos, CodeVacuous, subject,
				"implication is vacuously true: %s", reason)
		}
		a.walk(g.If, env, pos, subject)
		a.walk(g.Then, env, pos, subject)
	case logic.Iff:
		a.walk(g.A, env, pos, subject)
		a.walk(g.B, env, pos, subject)
	case logic.Box:
		a.walk(g.F, env, pos, subject)
	case logic.Diamond:
		a.walk(g.F, env, pos, subject)
	case logic.ForAll:
		a.checkRef(pos, subject, g.Ref)
		a.walk(g.Body, env.bindEvent(g.Var, g.Ref), pos, subject)
	case logic.Exists:
		a.checkRef(pos, subject, g.Ref)
		a.walk(g.Body, env.bindEvent(g.Var, g.Ref), pos, subject)
	case logic.ExistsUnique:
		a.checkRef(pos, subject, g.Ref)
		a.walk(g.Body, env.bindEvent(g.Var, g.Ref), pos, subject)
	case logic.AtMostOne:
		a.checkRef(pos, subject, g.Ref)
		a.walk(g.Body, env.bindEvent(g.Var, g.Ref), pos, subject)
	case logic.ForAllIn:
		for _, ref := range g.Refs {
			a.checkRef(pos, subject, ref)
		}
		a.walk(g.Body, env.bindEvent(g.Var, g.Refs...), pos, subject)
	case logic.ExistsUniqueIn:
		for _, ref := range g.Refs {
			a.checkRef(pos, subject, ref)
		}
		a.walk(g.Body, env.bindEvent(g.Var, g.Refs...), pos, subject)
	case logic.ForAllThread:
		a.checkThreadType(g.Type, pos, subject)
		a.walk(g.Body, env.bindThread(g.Var, g.Type), pos, subject)
	case logic.ExistsThread:
		a.checkThreadType(g.Type, pos, subject)
		a.walk(g.Body, env.bindThread(g.Var, g.Type), pos, subject)
	default:
		// Unknown formula node (a future extension): nothing to check.
	}
}

func (a *analysis) useEventVar(env binders, v string, pos Pos, subject string) {
	if _, ok := env.events[v]; ok {
		return
	}
	if _, ok := env.threads[v]; ok {
		a.errAt(pos, CodeUnboundVar, subject,
			"%q is a thread variable used where an event variable is required", v)
		return
	}
	a.errAt(pos, CodeUnboundVar, subject,
		"event variable %q is not bound by any enclosing quantifier", v)
}

func (a *analysis) useThreadVar(env binders, v string, pos Pos, subject string) {
	if _, ok := env.threads[v]; ok {
		return
	}
	a.errAt(pos, CodeUnboundVar, subject,
		"thread variable %q is not bound by any enclosing thread quantifier", v)
}

func (a *analysis) checkThreadType(tt string, pos Pos, subject string) {
	for _, t := range a.s.Threads() {
		if t.Name == tt {
			return
		}
	}
	a.warnAt(pos, CodeVacuous, subject,
		"quantifies over undeclared thread type %q, so its domain is always empty", tt)
}

// useParam checks that the class(es) a variable ranges over declare the
// parameter (GEM003). Unbound variables are reported by useEventVar.
func (a *analysis) useParam(env binders, v, param string, pos Pos, subject string) {
	a.useEventVar(env, v, pos, subject)
	refs, ok := env.events[v]
	if !ok {
		return
	}
	for _, ref := range refs {
		if a.refHasParam(ref, param) {
			return
		}
	}
	if len(refs) == 1 {
		a.errAt(pos, CodeDanglingParam, subject,
			"event class %s declares no parameter %q", refs[0], param)
		return
	}
	a.errAt(pos, CodeDanglingParam, subject,
		"no class of variable %q declares parameter %q", v, param)
}

// checkRefParam checks a parameter read directly on a class reference
// (FIFO). The reference itself must already have resolved.
func (a *analysis) checkRefParam(ref core.ClassRef, param string, pos Pos, subject string) {
	if !a.refHasParam(ref, param) {
		a.errAt(pos, CodeDanglingParam, subject,
			"event class %s declares no parameter %q", ref, param)
	}
}

// refHasParam reports whether some declaration matched by the reference
// declares the parameter. Dangling references count as "has" so a single
// defect is reported once (as GEM001/GEM002), not twice.
func (a *analysis) refHasParam(ref core.ClassRef, param string) bool {
	elems := a.resolveElems(ref)
	if len(elems) == 0 {
		return true
	}
	for _, e := range elems {
		d, ok := a.s.Element(e)
		if !ok {
			continue
		}
		if ref.Class == "" {
			return true
		}
		ec, ok := d.EventDecl(ref.Class)
		if ok && ec.HasParam(param) {
			return true
		}
	}
	return false
}

// unsat conservatively decides whether a formula can never hold, given
// the binder environment; it returns a human-readable reason, or "".
// Only guaranteed-unsatisfiable shapes are reported, so every reason is
// a real vacuity, never a heuristic guess.
func (a *analysis) unsat(f logic.Formula, env binders) string {
	switch g := f.(type) {
	case logic.FalseF:
		return "the antecedent is FALSE"
	case logic.And:
		for _, sub := range g {
			if r := a.unsat(sub, env); r != "" {
				return r
			}
		}
	case logic.Or:
		if len(g) == 0 {
			return ""
		}
		for _, sub := range g {
			if a.unsat(sub, env) == "" {
				return ""
			}
		}
		return "every disjunct of the antecedent is unsatisfiable"
	case logic.Box:
		return a.unsat(g.F, env)
	case logic.Diamond:
		return a.unsat(g.F, env)
	case logic.Exists:
		return a.unsat(g.Body, env.bindEvent(g.Var, g.Ref))
	case logic.ExistsUnique:
		return a.unsat(g.Body, env.bindEvent(g.Var, g.Ref))
	case logic.ExistsUniqueIn:
		return a.unsat(g.Body, env.bindEvent(g.Var, g.Refs...))
	case logic.ExistsThread:
		return a.unsat(g.Body, env.bindThread(g.Var, g.Type))
	case logic.InClass:
		if incompatibleAll(env.events[g.Var], []core.ClassRef{g.Ref}) {
			return fmt.Sprintf("%s can never be of class %s", g.Var, g.Ref)
		}
	case logic.AtElement:
		refs := env.events[g.Var]
		if len(refs) == 0 {
			return ""
		}
		for _, r := range refs {
			if r.Element == "" || r.Element == g.Element {
				return ""
			}
		}
		return fmt.Sprintf("%s ranges over %s and can never occur at element %s",
			g.Var, refsString(refs), g.Element)
	case logic.SameEvent:
		if incompatibleAll(env.events[g.X], env.events[g.Y]) {
			return fmt.Sprintf("%s and %s range over disjoint event classes and can never be equal", g.X, g.Y)
		}
	case logic.ElemOrdered:
		xs, ys := env.events[g.X], env.events[g.Y]
		if len(xs) == 0 || len(ys) == 0 {
			return ""
		}
		for _, rx := range xs {
			for _, ry := range ys {
				if rx.Element == "" || ry.Element == "" || rx.Element == ry.Element {
					return ""
				}
			}
		}
		return fmt.Sprintf("%s and %s always occur at different elements, so %s ~> %s never holds",
			g.X, g.Y, g.X, g.Y)
	case logic.Enables:
		xs, ys := env.events[g.X], env.events[g.Y]
		if len(xs) == 0 || len(ys) == 0 {
			return ""
		}
		for _, rx := range xs {
			for _, ry := range ys {
				if a.enablePossible(rx, ry) {
					return ""
				}
			}
		}
		return fmt.Sprintf("the access relation forbids every enable edge from %s to %s",
			refsString(xs), refsString(ys))
	}
	return ""
}

// incompatibleAll reports that every pairing of the two binder-ref sets
// is contradictory (different fixed element or different fixed class).
// Empty sets (unbound variables) yield false.
func incompatibleAll(xs, ys []core.ClassRef) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			elemClash := x.Element != "" && y.Element != "" && x.Element != y.Element
			classClash := x.Class != "" && y.Class != "" && x.Class != y.Class
			if !elemClash && !classClash {
				return false
			}
		}
	}
	return true
}

// enablePossible reports whether some resolution of the two references
// admits an enable edge under the Section 4 access relation. It is the
// one access rule of every pass: GEM005, GEM007's `|>` vacuity, and the
// producibility and deadlock edges of the deep passes (which ask it of
// two (element, class) pairs). Every edge is possible when the group
// structure is invalid, and when the spec declares core.AdminElement,
// whose group-change events alter the relation at run time.
func (a *analysis) enablePossible(src, dst core.ClassRef) bool {
	if a.universe == nil || a.dynamic {
		return true
	}
	ses, tes := a.resolveElems(src), a.resolveElems(dst)
	if len(ses) == 0 || len(tes) == 0 {
		return true // dangling: reported elsewhere, assume possible
	}
	for _, se := range ses {
		for _, te := range tes {
			if a.universe.MayEnable(se, te, dst.Class) {
				return true
			}
		}
	}
	return false
}

func refsString(refs []core.ClassRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
