package logic

import (
	"context"
	"fmt"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/obs"
	"gem/internal/order"
)

// This file implements the lattice fixpoint evaluation engine for temporal
// restrictions. GEM semantics quantifies a temporal restriction over all
// complete valid history sequences, and the sequence engine checks that
// literally — exponentially many sequences, each re-evaluating the formula
// at every position. But the histories of a computation form a finite
// lattice (history.Lattice), complete sequences are exactly the maximal
// paths of its vhs step DAG (Lattice.Steps), and this codebase's temporal
// operators are forward-only: the truth of a formula at a sequence
// position depends only on the suffix from that position. Truth over the
// sequence set can therefore be bounded — and for a large fragment decided
// — per (subformula, history) pair: O(|lattice| × |f|) instead of
// O(#sequences × length × |f|).
//
// The evaluator computes two satisfaction bitsets per subformula, indexed
// by the lattice's histories:
//
//	lower(f)[h] — f certainly holds at h in EVERY complete sequence
//	    through h (a sound under-approximation of "all")
//	upper(f)[h] — f possibly holds at h in SOME complete sequence
//	    through h (a sound over-approximation of "some")
//
// Every formula shape has sound bound rules, so the evaluator covers the
// full restriction language; alongside the bounds it tracks a per-node
// exactness pair (lowExact, upExact) recording whether each bound is not
// merely sound but equal to the true satisfaction set. Rules, with their
// exactness arguments:
//
//	lower(□f)[h] = ∀ h' ⊒ h: lower(f)[h']      (exact iff lower(f) is: a
//	    failing position (τ,k) at h' splices onto any ∅→h→h' prefix,
//	    and forward-only evaluation preserves f's value on the shared
//	    suffix)
//	upper(◇f)[h] = ∃ h' ⊒ h: upper(f)[h']      (exact dually)
//	lower(◇f)[h] = AF over the step DAG: every maximal step path from
//	    h hits an f-history — sound for any f, exact only when f is
//	    immediate (history-determined)
//	upper(□f)[h] = EG over the step DAG: some maximal step path from h
//	    stays inside f-histories — sound always, exact for immediate f
//	lower(¬f) = ¬upper(f), upper(¬f) = ¬lower(f)  (exactness swaps)
//	lower(∧) = ∩ lowers (exact); upper(∨) = ∪ uppers (exact)
//	lower(∨) = ∪ lowers and upper(∧) = ∩ uppers — sound always, exact
//	    only when at most one operand is non-immediate (two
//	    sequence-dependent disjuncts can cover all sequences without
//	    either covering them alone)
//	∀/∀-in/∀-thread distribute like ∧, ∃/∃-thread like ∨, over their
//	    (history-independent) binding domains: lower(∃xφ) = ∪ₓ lower(φₓ)
//	    is a sound lower bound for any body (a certain witness in every
//	    sequence certainly witnesses ∃), exact when the body is exact
//	    and at most one binding exists
//	∃!/at-most-one combine per-binding bounds pairwise: e.g.
//	    lower(∃!xφ) = ∪ₓ (lower(φₓ) ∩ ⋂_{y≠x} ¬upper(φᵧ)) — x certainly
//	    holds while every other binding certainly fails. Sound always,
//	    inexact beyond one binding.
//
// The verdict at the empty history ∅ (where every complete sequence
// starts) uses the bounds from both sides:
//
//	lower(F)[∅]              → PASS  (sound without any exactness)
//	¬upper(F)[∅]             → FAIL  (every sequence violates F — any
//	                                  maximal step path is a witness)
//	lowExact ∧ ¬lower(F)[∅]  → FAIL  (extract a violating path by
//	                                  structural recursion, see refute)
//	otherwise                → inconclusive; Holds falls back to the
//	                                  sequence strategies (observable as
//	                                  the engine.lattice.fallback counter)
//
// On the failure sides the engine extracts a concrete complete valid
// history sequence violating F by walking the step DAG — through the
// complement of the relevant bound sets — and re-verifies it with one
// ordinary sequence evaluation before reporting it, so a reported witness
// is always genuine even if a bound rule were wrong. The sequence engine
// is thereby reduced to a test oracle: agreement suites compare verdicts
// and witness validity, not witness identity.
//
// The □/◇ reachability and fixpoint passes run in one sweep over
// Lattice.EvalOrder (decreasing history size), since every step successor
// is a strict superset. Scratch bitsets are pooled on the evaluator (the
// delta-pool pattern of Sequence.Validate): every node returns its two
// bitsets to the free list once the parent has folded them in, so an
// evaluation allocates O(formula depth) bitsets, not O(formula size).

// Engine selects the evaluation strategy Holds uses for temporal
// restrictions.
type Engine int

const (
	// EngineAuto picks the cheapest sound strategy per formula: the
	// □-invariant reduction, then the lattice engine whenever its bounds
	// decide the formula (which they do for the entire language on the
	// failure-by-upper side and for the exact fragment on both sides),
	// then the history-pair reduction, then sequence enumeration. The
	// default.
	EngineAuto Engine = iota
	// EngineSeq forces the sequence-based strategies (invariant and pair
	// reductions plus enumeration) — the engine's historical behavior,
	// kept as the agreement-test oracle.
	EngineSeq
	// EngineLattice forces the lattice fixpoint evaluator for every
	// temporal formula, including counterexample extraction on failure;
	// it falls back to the sequence engine only when the bounds are
	// inconclusive (recorded on the engine.lattice.fallback counter).
	EngineLattice
)

// String implements flag.Value-style rendering.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSeq:
		return "seq"
	case EngineLattice:
		return "lattice"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "seq":
		return EngineSeq, nil
	case "lattice":
		return EngineLattice, nil
	default:
		return EngineAuto, fmt.Errorf("logic: unknown engine %q (want auto, lattice or seq)", s)
	}
}

// immediate reports that the formula reads only the current history.
func immediate(f Formula) bool { return !HasTemporal(f) }

// approx is one node's evaluation result: sound lower/upper satisfaction
// sets plus whether each bound is exact. The bitsets are owned by the
// node and returned to the evaluator pool by the consuming parent.
type approx struct {
	low, up  order.Bitset
	lowExact bool
	upExact  bool
}

// latticeDecide runs the lattice engine on f over c's history lattice.
// It returns (nil, true) when f certainly holds on every complete valid
// history sequence, (cx, true) with a verified violating sequence when f
// certainly fails, and (nil, false) when the bounds are inconclusive —
// the caller then falls back to the sequence strategies. ctx only carries
// the observability span for counterexample extraction.
func latticeDecide(ctx context.Context, f Formula, c *core.Computation) (*Counterexample, bool) {
	ev := newLatticeEval(c)
	env := &Env{C: c}
	root := ev.eval(f, env)
	e := ev.empty
	var path []int32
	switch {
	case root.low.Has(e):
		// lower is a sound under-approximation of "holds in every
		// sequence": pass, regardless of exactness.
		return nil, true
	case !root.up.Has(e):
		// upper soundly over-approximates "holds in some sequence", so an
		// empty upper at ∅ means every complete sequence violates f: any
		// maximal step path is a counterexample.
		path = ev.anyPathFrom(int32(e))
	case root.lowExact:
		// The lower bound is exact and excludes ∅: some complete sequence
		// violates f, and the exactness certificates let refute walk the
		// step DAG to one.
		path = ev.refute(f, int32(e), env)
	default:
		return nil, false
	}
	_, sp := obs.StartSpan(ctx, "engine.lattice.cex")
	seq := ev.sequence(path)
	satisfied := f.Eval(NewSeqEnv(seq, 0))
	sp.End()
	if satisfied {
		// Defensive re-verification: the extracted path falsifies f by
		// construction, so reaching here indicates an engine bug. Report
		// inconclusive (→ sequence fallback) rather than a bogus witness.
		obs.Count("engine.lattice.cex.rejected", 1)
		return nil, false
	}
	return &Counterexample{Formula: f, History: seq[0], Seq: seq, Comp: c}, true
}

// latticeEval evaluates subformulas to per-history satisfaction bitsets.
type latticeEval struct {
	c     *core.Computation
	hs    []history.History
	steps [][]int32
	order []int32
	empty int            // lattice index of the empty history
	free  []order.Bitset // scratch pool, sized len(hs) each
}

func newLatticeEval(c *core.Computation) *latticeEval {
	lat := history.Shared(c)
	ev := &latticeEval{
		c:     c,
		hs:    lat.Histories(),
		steps: lat.Steps(),
		order: lat.EvalOrder(),
		empty: -1,
	}
	for i, h := range ev.hs {
		if h.Len() == 0 {
			ev.empty = i
			break
		}
	}
	if ev.empty < 0 {
		// A computation always has the empty history; not reaching it
		// means the lattice is corrupt.
		panic("logic: history lattice has no empty history")
	}
	return ev
}

// get hands out an empty scratch bitset, reusing a pooled one when
// available. Evaluation is single-goroutine per call, so no locking.
func (ev *latticeEval) get() order.Bitset {
	if n := len(ev.free); n > 0 {
		b := ev.free[n-1]
		ev.free = ev.free[:n-1]
		b.Reset()
		return b
	}
	return order.NewBitset(len(ev.hs))
}

// put returns scratch bitsets to the pool.
func (ev *latticeEval) put(bs ...order.Bitset) { ev.free = append(ev.free, bs...) }

// release returns a consumed child result's bitsets to the pool.
func (ev *latticeEval) release(a approx) { ev.put(a.low, a.up) }

// eval computes sound lower/upper bounds (and their exactness) for f
// under env. The returned bitsets come from the pool; the caller owns
// them and must release them (directly or by folding them into its own
// result).
func (ev *latticeEval) eval(f Formula, env *Env) approx {
	if immediate(f) {
		low := ev.pointwise(f, env)
		up := ev.get()
		up.CopyFrom(low)
		return approx{low: low, up: up, lowExact: true, upExact: true}
	}
	switch g := f.(type) {
	case Box:
		a := ev.eval(g.F, env)
		return approx{
			low:      ev.allSuccessors(a.low),
			up:       ev.invariantly(a.up),
			lowExact: a.lowExact,
			upExact:  immediate(g.F),
		}
	case Diamond:
		a := ev.eval(g.F, env)
		return approx{
			low:      ev.inevitably(a.low),
			up:       ev.someSuccessor(a.up),
			lowExact: immediate(g.F),
			upExact:  a.upExact,
		}
	case Not:
		a := ev.eval(g.F, env)
		a.low.FlipAll()
		a.up.FlipAll()
		return approx{low: a.up, up: a.low, lowExact: a.upExact, upExact: a.lowExact}
	case And:
		return ev.evalJunction(g, env, true)
	case Or:
		return ev.evalJunction(g, env, false)
	case Implies:
		return ev.evalImplies(g.If, g.Then, env)
	case Iff:
		return ev.eval(desugarIff(g), env)
	case ForAll, ForAllIn, ForAllThread:
		body, envs := quantEnvs(env, f)
		return ev.evalQuant(body, envs, true)
	case Exists, ExistsThread:
		body, envs := quantEnvs(env, f)
		return ev.evalQuant(body, envs, false)
	case ExistsUnique, ExistsUniqueIn:
		body, envs := quantEnvs(env, f)
		return ev.evalUnique(body, envs)
	case AtMostOne:
		body, envs := quantEnvs(env, f)
		return ev.evalAtMostOne(body, envs)
	default:
		panic(fmt.Sprintf("logic: lattice engine cannot bound %s", f))
	}
}

// desugarIff rewrites A ≡ B as (A → B) ∧ (B → A), whose bound rules are
// already defined. The implication rules make mixed immediate/temporal
// equivalences exact.
func desugarIff(g Iff) Formula {
	return And{Implies{If: g.A, Then: g.B}, Implies{If: g.B, Then: g.A}}
}

// evalJunction folds conjuncts (conj) or disjuncts (!conj). The inexact
// direction — lower of ∨, upper of ∧ — is exact only when at most one
// operand is sequence-dependent.
func (ev *latticeEval) evalJunction(subs []Formula, env *Env, conj bool) approx {
	low, up := ev.get(), ev.get()
	if conj {
		low.Fill()
		up.Fill()
	}
	allLow, allUp := true, true
	nonImm := 0
	for _, sub := range subs {
		a := ev.eval(sub, env)
		if conj {
			low.AndWith(a.low)
			up.AndWith(a.up)
		} else {
			low.OrWith(a.low)
			up.OrWith(a.up)
		}
		allLow = allLow && a.lowExact
		allUp = allUp && a.upExact
		if !immediate(sub) {
			nonImm++
		}
		ev.release(a)
	}
	if conj {
		return approx{low: low, up: up, lowExact: allLow, upExact: allUp && nonImm <= 1}
	}
	return approx{low: low, up: up, lowExact: allLow && nonImm <= 1, upExact: allUp}
}

// evalImplies computes A → B as ¬A ∨ B without materializing the
// disjunction: low = ¬up(A) ∪ low(B), up = ¬low(A) ∪ up(B).
func (ev *latticeEval) evalImplies(ifF, thenF Formula, env *Env) approx {
	a := ev.eval(ifF, env)
	b := ev.eval(thenF, env)
	a.up.FlipAll()
	a.up.OrWith(b.low)
	a.low.FlipAll()
	a.low.OrWith(b.up)
	out := approx{
		low:      a.up,
		up:       a.low,
		lowExact: a.upExact && b.lowExact && (immediate(ifF) || immediate(thenF)),
		upExact:  a.lowExact && b.upExact,
	}
	ev.release(b)
	return out
}

// quantEnvs materializes a quantifier node's bound environments and
// returns its body. Binding domains are history-independent, so the
// evaluator distributes over them like finite junctions. The children
// are alive together — evalUnique and evalAtMostOne evaluate every one
// before combining, refute and witness recurse into a chosen one — so
// each owns its binding stack (Env.bind copies it) rather than sharing
// the parent's backing array.
func quantEnvs(env *Env, f Formula) (Formula, []*Env) {
	switch g := f.(type) {
	case ForAll:
		return g.Body, bindEach(env, g.Var, classDomain(env, g.Ref))
	case Exists:
		return g.Body, bindEach(env, g.Var, classDomain(env, g.Ref))
	case ExistsUnique:
		return g.Body, bindEach(env, g.Var, classDomain(env, g.Ref))
	case AtMostOne:
		return g.Body, bindEach(env, g.Var, classDomain(env, g.Ref))
	case ForAllIn:
		return g.Body, bindEach(env, g.Var, unionDomain(env, g.Refs))
	case ExistsUniqueIn:
		return g.Body, bindEach(env, g.Var, unionDomain(env, g.Refs))
	case ForAllThread:
		return g.Body, bindEachThread(env, g.Var, threadDomain(env, g.Type))
	case ExistsThread:
		return g.Body, bindEachThread(env, g.Var, threadDomain(env, g.Type))
	default:
		panic(fmt.Sprintf("logic: not a quantifier: %s", f))
	}
}

// bindEach returns one child environment per event of dom, binding v.
func bindEach(env *Env, v string, dom []core.EventID) []*Env {
	envs := make([]*Env, len(dom))
	for i, id := range dom {
		envs[i] = env.bind(v, id)
	}
	return envs
}

// bindEachThread returns one child environment per thread of dom,
// binding v.
func bindEachThread(env *Env, v string, dom []string) []*Env {
	envs := make([]*Env, len(dom))
	for i, tid := range dom {
		envs[i] = env.bindThread(v, tid)
	}
	return envs
}

// evalQuant folds a quantifier's bound bodies like a junction. The body
// is sequence-dependent here (immediate quantified formulas are handled
// pointwise), so the inexact direction becomes exact only for domains of
// at most one binding.
func (ev *latticeEval) evalQuant(body Formula, envs []*Env, conj bool) approx {
	low, up := ev.get(), ev.get()
	if conj {
		low.Fill()
		up.Fill()
	}
	allLow, allUp := true, true
	for _, be := range envs {
		a := ev.eval(body, be)
		if conj {
			low.AndWith(a.low)
			up.AndWith(a.up)
		} else {
			low.OrWith(a.low)
			up.OrWith(a.up)
		}
		allLow = allLow && a.lowExact
		allUp = allUp && a.upExact
		ev.release(a)
	}
	single := len(envs) <= 1
	if conj {
		return approx{low: low, up: up, lowExact: allLow, upExact: allUp && single}
	}
	return approx{low: low, up: up, lowExact: allLow && single, upExact: allUp}
}

// evalUnique bounds ∃! by pairing per-binding bounds: the formula
// certainly holds where some binding certainly holds and every other
// binding certainly fails, and possibly holds where some binding possibly
// holds while every other possibly fails.
func (ev *latticeEval) evalUnique(body Formula, envs []*Env) approx {
	n := len(envs)
	if n == 0 {
		// ∃! over an empty domain is false everywhere, exactly.
		return approx{low: ev.get(), up: ev.get(), lowExact: true, upExact: true}
	}
	as := make([]approx, n)
	for i, be := range envs {
		as[i] = ev.eval(body, be)
	}
	if n == 1 {
		return as[0] // ∃! of a single candidate is just its body
	}
	low, up, tmp := ev.get(), ev.get(), ev.get()
	for x := range as {
		tmp.CopyFrom(as[x].low)
		for y := range as {
			if y != x {
				tmp.AndNotWith(as[y].up)
			}
		}
		low.OrWith(tmp)
		tmp.CopyFrom(as[x].up)
		for y := range as {
			if y != x {
				tmp.AndNotWith(as[y].low)
			}
		}
		up.OrWith(tmp)
	}
	ev.put(tmp)
	for _, a := range as {
		ev.release(a)
	}
	// Different sequences can realize uniqueness through different
	// bindings, so neither bound is exact beyond one binding.
	return approx{low: low, up: up}
}

// evalAtMostOne bounds the counting quantifier: it certainly holds where
// no two bindings can both hold in any sequence, and possibly holds
// except where two bindings certainly hold together.
func (ev *latticeEval) evalAtMostOne(body Formula, envs []*Env) approx {
	n := len(envs)
	if n <= 1 {
		// At most one of ≤1 candidates holds trivially, everywhere.
		low, up := ev.get(), ev.get()
		low.Fill()
		up.Fill()
		return approx{low: low, up: up, lowExact: true, upExact: true}
	}
	as := make([]approx, n)
	for i, be := range envs {
		as[i] = ev.eval(body, be)
	}
	low, tmp := ev.get(), ev.get()
	low.Fill()
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			tmp.CopyFrom(as[x].up)
			tmp.AndWith(as[y].up)
			low.AndNotWith(tmp)
		}
	}
	once, twice := ev.get(), ev.get()
	for _, a := range as {
		tmp.CopyFrom(a.low)
		tmp.AndWith(once)
		twice.OrWith(tmp)
		once.OrWith(a.low)
	}
	twice.FlipAll()
	ev.put(tmp, once)
	for _, a := range as {
		ev.release(a)
	}
	return approx{low: low, up: twice}
}

// pointwise evaluates an immediate formula at every lattice history.
// Purely structural formulas have one verdict for the whole computation,
// so they are evaluated once.
func (ev *latticeEval) pointwise(f Formula, env *Env) order.Bitset {
	out := ev.get()
	saveH := env.H
	defer func() { env.H = saveH }()
	if !HasHistoryPredicate(f) {
		env.H = ev.hs[0]
		if f.Eval(env) {
			out.Fill()
		}
		return out
	}
	for i, h := range ev.hs {
		env.H = h
		if f.Eval(env) {
			out.Set(i)
		}
	}
	return out
}

// allSuccessors computes AG: the histories all of whose supersets
// (including themselves) lie in body. One sweep in decreasing-size order
// suffices, since step reachability is exactly the strict-superset
// relation.
func (ev *latticeEval) allSuccessors(body order.Bitset) order.Bitset {
	out := body // body bitsets are owned per-node; reuse in place
	for _, i := range ev.order {
		if !out.Has(int(i)) {
			continue
		}
		for _, j := range ev.steps[i] {
			if !out.Has(int(j)) {
				out.Clear(int(i))
				break
			}
		}
	}
	return out
}

// someSuccessor computes EF: the histories with some superset (including
// themselves) in body.
func (ev *latticeEval) someSuccessor(body order.Bitset) order.Bitset {
	out := body
	for _, i := range ev.order {
		if out.Has(int(i)) {
			continue
		}
		for _, j := range ev.steps[i] {
			if out.Has(int(j)) {
				out.Set(int(i))
				break
			}
		}
	}
	return out
}

// inevitably computes AF over the step DAG: every maximal step path from
// the history (equivalently, every complete sequence suffix) eventually
// visits body. The full history is the DAG's sink, so paths end there.
func (ev *latticeEval) inevitably(body order.Bitset) order.Bitset {
	out := body
	for _, i := range ev.order {
		if out.Has(int(i)) || len(ev.steps[i]) == 0 {
			continue
		}
		all := true
		for _, j := range ev.steps[i] {
			if !out.Has(int(j)) {
				all = false
				break
			}
		}
		if all {
			out.Set(int(i))
		}
	}
	return out
}

// invariantly computes EG over the step DAG: some maximal step path from
// the history stays inside body throughout.
func (ev *latticeEval) invariantly(body order.Bitset) order.Bitset {
	out := body
	for _, i := range ev.order {
		if !out.Has(int(i)) || len(ev.steps[i]) == 0 {
			continue
		}
		any := false
		for _, j := range ev.steps[i] {
			if out.Has(int(j)) {
				any = true
				break
			}
		}
		if !any {
			out.Clear(int(i))
		}
	}
	return out
}

// --- Counterexample extraction ------------------------------------------
//
// refute and witness walk the step DAG guided by the bound sets: refute
// returns a maximal step path from h on which f is false at position 0,
// witness one on which f is true. Their preconditions mirror the
// exactness rules — refute(f, h) requires lowExact(f) and h ∉ lower(f),
// witness(f, h) requires upExact(f) and h ∈ upper(f) — and every case
// below recurses only into children whose precondition its own exactness
// rule guarantees. Sub-bounds are recomputed on the recursion path, so
// extraction costs O(|f| · depth) lattice sweeps — still tiny next to
// sequence enumeration, and paid only on failing checks.

// refute returns a maximal step path from h (inclusive) on which f is
// false at position 0.
func (ev *latticeEval) refute(f Formula, h int32, env *Env) []int32 {
	if immediate(f) {
		// f is false at h regardless of the path taken.
		return ev.anyPathFrom(h)
	}
	switch g := f.(type) {
	case Box:
		// Some reachable h' has the body certainly failing; route there,
		// then make the body fail.
		a := ev.eval(g.F, env)
		a.low.FlipAll()
		prefix := ev.pathToward(h, a.low)
		ev.release(a)
		hh := prefix[len(prefix)-1]
		return append(prefix[:len(prefix)-1], ev.refute(g.F, hh, env)...)
	case Diamond:
		// lowExact(◇g) ⇒ g immediate. Walk a maximal path avoiding the AF
		// fixpoint of g's histories: no position on it satisfies g.
		a := ev.eval(g.F, env)
		af := ev.inevitably(a.low)
		path := ev.pathAvoiding(h, af)
		ev.put(af, a.up)
		return path
	case Not:
		return ev.witness(g.F, h, env)
	case And:
		for _, sub := range g {
			a := ev.eval(sub, env)
			failed := !a.low.Has(int(h))
			ev.release(a)
			if failed {
				return ev.refute(sub, h, env)
			}
		}
		panic(fmt.Sprintf("logic: no refutable conjunct of %s", f))
	case Or:
		// Every disjunct has h outside its (exact) lower bound and at most
		// one is sequence-dependent: refuting that one yields a path on
		// which the immediate disjuncts are false at h as well.
		for _, sub := range g {
			if !immediate(sub) {
				return ev.refute(sub, h, env)
			}
		}
		return ev.anyPathFrom(h)
	case Implies:
		// h ∈ upper(If) and h ∉ lower(Then), with one side immediate.
		if immediate(g.If) {
			return ev.refute(g.Then, h, env)
		}
		return ev.witness(g.If, h, env)
	case Iff:
		return ev.refute(desugarIff(g), h, env)
	case ForAll, ForAllIn, ForAllThread:
		body, envs := quantEnvs(env, f)
		for _, be := range envs {
			a := ev.eval(body, be)
			failed := !a.low.Has(int(h))
			ev.release(a)
			if failed {
				return ev.refute(body, h, be)
			}
		}
		panic(fmt.Sprintf("logic: no refutable binding of %s", f))
	case Exists, ExistsThread:
		body, envs := quantEnvs(env, f)
		switch len(envs) {
		case 0:
			return ev.anyPathFrom(h) // false on every path
		case 1:
			return ev.refute(body, h, envs[0])
		}
		panic(fmt.Sprintf("logic: refuting multi-binding %s outside the exact fragment", f))
	case ExistsUnique, ExistsUniqueIn:
		body, envs := quantEnvs(env, f)
		switch len(envs) {
		case 0:
			return ev.anyPathFrom(h) // false on every path
		case 1:
			return ev.refute(body, h, envs[0])
		}
		panic(fmt.Sprintf("logic: refuting multi-binding %s outside the exact fragment", f))
	default:
		panic(fmt.Sprintf("logic: cannot refute %s", f))
	}
}

// witness returns a maximal step path from h (inclusive) on which f is
// true at position 0.
func (ev *latticeEval) witness(f Formula, h int32, env *Env) []int32 {
	if immediate(f) {
		return ev.anyPathFrom(h)
	}
	switch g := f.(type) {
	case Box:
		// upExact(□g) ⇒ g immediate. Walk inside the EG fixpoint: every
		// position on the path satisfies g.
		a := ev.eval(g.F, env)
		eg := ev.invariantly(a.up)
		path := ev.pathInside(h, eg)
		ev.put(eg, a.low)
		return path
	case Diamond:
		// Route to a history where the body possibly holds, then make it
		// hold there.
		a := ev.eval(g.F, env)
		prefix := ev.pathToward(h, a.up)
		ev.release(a)
		hh := prefix[len(prefix)-1]
		return append(prefix[:len(prefix)-1], ev.witness(g.F, hh, env)...)
	case Not:
		return ev.refute(g.F, h, env)
	case And:
		// h is inside every conjunct's (exact) upper bound and at most one
		// conjunct is sequence-dependent: witnessing it satisfies the
		// immediate ones for free.
		for _, sub := range g {
			if !immediate(sub) {
				return ev.witness(sub, h, env)
			}
		}
		return ev.anyPathFrom(h)
	case Or:
		for _, sub := range g {
			a := ev.eval(sub, env)
			ok := a.up.Has(int(h))
			ev.release(a)
			if ok {
				return ev.witness(sub, h, env)
			}
		}
		panic(fmt.Sprintf("logic: no witnessable disjunct of %s", f))
	case Implies:
		// Satisfy ¬If when it certainly fails at h, otherwise satisfy Then.
		a := ev.eval(g.If, env)
		refutable := !a.low.Has(int(h))
		ev.release(a)
		if refutable {
			return ev.refute(g.If, h, env)
		}
		return ev.witness(g.Then, h, env)
	case Iff:
		return ev.witness(desugarIff(g), h, env)
	case Exists, ExistsThread:
		body, envs := quantEnvs(env, f)
		for _, be := range envs {
			a := ev.eval(body, be)
			ok := a.up.Has(int(h))
			ev.release(a)
			if ok {
				return ev.witness(body, h, be)
			}
		}
		panic(fmt.Sprintf("logic: no witnessable binding of %s", f))
	case ForAll, ForAllIn, ForAllThread:
		body, envs := quantEnvs(env, f)
		switch len(envs) {
		case 0:
			return ev.anyPathFrom(h) // vacuously true on every path
		case 1:
			return ev.witness(body, h, envs[0])
		}
		panic(fmt.Sprintf("logic: witnessing multi-binding %s outside the exact fragment", f))
	case ExistsUnique, ExistsUniqueIn:
		body, envs := quantEnvs(env, f)
		if len(envs) == 1 {
			return ev.witness(body, h, envs[0])
		}
		panic(fmt.Sprintf("logic: witnessing multi-binding %s outside the exact fragment", f))
	case AtMostOne:
		_, envs := quantEnvs(env, f)
		if len(envs) <= 1 {
			return ev.anyPathFrom(h) // trivially true on every path
		}
		panic(fmt.Sprintf("logic: witnessing multi-binding %s outside the exact fragment", f))
	default:
		panic(fmt.Sprintf("logic: cannot witness %s", f))
	}
}

// anyPathFrom returns the canonical maximal step path from h: always the
// first listed successor. Maximal step paths end at the full history, the
// DAG's unique sink.
func (ev *latticeEval) anyPathFrom(h int32) []int32 {
	path := []int32{h}
	for len(ev.steps[h]) > 0 {
		h = ev.steps[h][0]
		path = append(path, h)
	}
	return path
}

// pathToward returns a shortest step path from h to some member of
// target (h itself counts). Callers guarantee reachability through the
// EF/AG bound sets.
func (ev *latticeEval) pathToward(h int32, target order.Bitset) []int32 {
	if target.Has(int(h)) {
		return []int32{h}
	}
	parent := make([]int32, len(ev.hs))
	for i := range parent {
		parent[i] = -1
	}
	parent[h] = h
	queue := []int32{h}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range ev.steps[i] {
			if parent[j] >= 0 {
				continue
			}
			parent[j] = i
			if target.Has(int(j)) {
				var rev []int32
				for k := j; k != h; k = parent[k] {
					rev = append(rev, k)
				}
				rev = append(rev, h)
				for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
					rev[l], rev[r] = rev[r], rev[l]
				}
				return rev
			}
			queue = append(queue, j)
		}
	}
	panic("logic: lattice extraction target unreachable")
}

// pathAvoiding returns a maximal step path from h with every node outside
// the AF fixpoint set af. Precondition h ∉ af; then every non-sink node
// outside af has a successor outside af (else AF would have added it).
func (ev *latticeEval) pathAvoiding(h int32, af order.Bitset) []int32 {
	path := []int32{h}
	for len(ev.steps[h]) > 0 {
		next := int32(-1)
		for _, j := range ev.steps[h] {
			if !af.Has(int(j)) {
				next = j
				break
			}
		}
		if next < 0 {
			panic("logic: AF-avoiding path has no continuation")
		}
		h = next
		path = append(path, h)
	}
	return path
}

// pathInside returns a maximal step path from h staying inside the EG
// fixpoint set eg. Precondition h ∈ eg; then every non-sink node inside
// eg keeps a successor inside eg (else EG would have removed it).
func (ev *latticeEval) pathInside(h int32, eg order.Bitset) []int32 {
	path := []int32{h}
	for len(ev.steps[h]) > 0 {
		next := int32(-1)
		for _, j := range ev.steps[h] {
			if eg.Has(int(j)) {
				next = j
				break
			}
		}
		if next < 0 {
			panic("logic: EG path has no continuation")
		}
		h = next
		path = append(path, h)
	}
	return path
}

// sequence materializes a step path as a history sequence.
func (ev *latticeEval) sequence(path []int32) history.Sequence {
	s := make(history.Sequence, len(path))
	for i, idx := range path {
		s[i] = ev.hs[idx]
	}
	return s
}
