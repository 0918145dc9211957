package logic

import (
	"context"
	"fmt"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/obs"
)

// Counterexample describes where and why a restriction failed.
type Counterexample struct {
	Formula Formula
	History history.History   // the violating history (the first history of Seq for temporal failures)
	Seq     history.Sequence  // the violating complete sequence, for temporal failures
	Comp    *core.Computation // the computation being checked
}

// Error renders the counterexample.
func (cx *Counterexample) Error() string {
	if cx == nil {
		return "<no counterexample>"
	}
	s := fmt.Sprintf("restriction violated: %s\n  at history %s", cx.Formula, cx.History)
	if cx.Seq != nil {
		s += fmt.Sprintf("\n  along sequence of %d histories", len(cx.Seq))
	}
	return s
}

// Verify re-checks the counterexample independently of the engine that
// produced it. A temporal failure's witness is a complete valid history
// sequence, from the empty history to the full computation, at whose
// first position the formula is false. Any other failure's witness is a
// single history at which the formula is false: a history of the
// invariant reduction, or the full history of a structural check.
func (cx *Counterexample) Verify() error {
	if cx == nil {
		return nil
	}
	if cx.Seq == nil {
		if cx.Formula.Eval(NewEnv(cx.History)) {
			return fmt.Errorf("logic: counterexample history satisfies %s", cx.Formula)
		}
		return nil
	}
	if err := cx.Seq.Validate(); err != nil {
		return fmt.Errorf("logic: counterexample sequence is not valid: %w", err)
	}
	if !cx.Seq.IsComplete() {
		return fmt.Errorf("logic: counterexample sequence of %d histories is not complete", len(cx.Seq))
	}
	if cx.Formula.Eval(NewSeqEnv(cx.Seq, 0)) {
		return fmt.Errorf("logic: counterexample sequence satisfies %s", cx.Formula)
	}
	return nil
}

// CheckOptions configure how a check runs: its parallelism, context and
// verdict cache. None of them changes a verdict.
type CheckOptions struct {
	// Parallelism is the worker count used when independent checks are
	// fanned out through fanout.First: verify.CheckAll across
	// computations (and HoldsEvery across (computation, formula)
	// pairs). 0 or 1 checks sequentially; parallel runs report the
	// same verdicts and the same first (lowest-index) counterexample. A
	// single formula or legality check is never split across workers.
	Parallelism int
	// Ctx carries cancellation and the observability span context
	// through the checks: the fan-outs (fanout.First) poll it and stop
	// promptly once it is cancelled, and spans opened under it nest in
	// the emitted trace.
	// nil means context.Background(): never cancelled. Individual
	// formula evaluations are not interrupted mid-enumeration, so
	// cancellation latency is bounded by one unit of work.
	Ctx context.Context
	// Cache, when non-nil, is consulted before each top-level formula
	// evaluation and written behind on a miss (lookup-before-evaluate).
	// Nothing is written after the context has been cancelled — a
	// truncated evaluation must never be persisted as a verdict.
	Cache VerdictCache
}

// Holds checks a restriction against a computation following GEM
// semantics:
//
//   - A formula containing temporal operators must hold on every complete
//     valid history sequence of the computation.
//   - A formula containing history predicates (occurred, new, potential,
//     at) but no temporal operators is an invariant: it must hold at every
//     history.
//   - A purely structural formula is evaluated once at the full history.
//
// It returns nil when the restriction holds, or a counterexample.
//
// With opts.Cache set, the persistent store is consulted first and
// written behind on a miss; the cache is keyed at the whole-formula
// level, so the recursive And-split below always evaluates with the
// cache cleared.
func Holds(f Formula, c *core.Computation, opts CheckOptions) *Counterexample {
	if cache := opts.Cache; cache != nil {
		opts.Cache = nil
		if cx, ok := cache.Lookup(opts.Ctx, f, c); ok {
			return cx
		}
		cx := Holds(f, c, opts)
		// A cancelled context may have truncated the evaluation (the
		// checks poll it between units of work); a truncated "pass" is
		// not a verdict, so skip the write-behind entirely.
		if !Cancelled(Done(opts.Ctx)) {
			cache.Store(f, c, cx)
		}
		return cx
	}
	// Universal checking distributes over conjunction; checking conjuncts
	// separately lets each pick its cheapest sound strategy (notably the
	// □-invariant reduction below).
	if and, ok := f.(And); ok {
		for _, sub := range and {
			if cx := Holds(sub, c, opts); cx != nil {
				return cx
			}
		}
		return nil
	}
	switch {
	case HasTemporal(f):
		// □p for immediate p is an invariant: it holds on every valid
		// history sequence iff p holds at every history (every history
		// occurs in some complete sequence, and every sequence member is
		// a history). Deciding it over histories avoids enumerating the
		// exponentially larger sequence set, exactly — and avoids the
		// lattice engine's step-DAG bitsets, so it comes first.
		if box, ok := f.(Box); ok && !HasTemporal(box.F) {
			_, sp := obs.StartSpan(opts.Ctx, "engine.histories")
			cx := holdsOnHistories(box.F, c)
			sp.End()
			return cx
		}
		// The lattice fixpoint engine (latticeeval.go) bounds every
		// temporal formula over the history lattice instead of the
		// exponentially larger sequence set, decides most of them (pass
		// and fail alike, extracting its own violating sequence on
		// failure), and reports "inconclusive" for the rest. Only an
		// inconclusive bound, counted on engine.lattice.fallback, goes on
		// to the definition: every complete sequence, one by one.
		if cx, decided := latticeAttempt(opts.Ctx, f, c); decided {
			return cx
		}
		_, sp := obs.StartSpan(opts.Ctx, "engine.seq")
		cx := holdsOnSequences(f, c)
		sp.End()
		return cx
	case HasHistoryPredicate(f):
		_, sp := obs.StartSpan(opts.Ctx, "engine.histories")
		cx := holdsOnHistories(f, c)
		sp.End()
		return cx
	default:
		env := NewEnv(history.Full(c))
		if !f.Eval(env) {
			return &Counterexample{Formula: f, History: env.H, Comp: c}
		}
		return nil
	}
}

// latticeAttempt runs the lattice fixpoint engine under an engine-stage
// span and records its outcome counters: engine.lattice.pass for a
// decided pass, engine.lattice.cex for a decided failure (the witness
// extraction also times itself under the nested engine.lattice.cex
// span), and engine.lattice.fallback for an inconclusive outcome — the
// only case that goes on to sequence enumeration.
func latticeAttempt(ctx context.Context, f Formula, c *core.Computation) (*Counterexample, bool) {
	cctx, sp := obs.StartSpan(ctx, "engine.lattice")
	cx, decided := latticeDecide(cctx, f, c)
	sp.End()
	switch {
	case !decided:
		obs.Count("engine.lattice.fallback", 1)
	case cx == nil:
		obs.Count("engine.lattice.pass", 1)
	default:
		obs.Count("engine.lattice.cex", 1)
	}
	return cx, decided
}

// HoldsAtFull evaluates the formula at the complete history only,
// regardless of its shape. Useful for postcondition-style checks
// (functional correctness at termination).
func HoldsAtFull(f Formula, c *core.Computation) *Counterexample {
	env := NewEnv(history.Full(c))
	if !f.Eval(env) {
		return &Counterexample{Formula: f, History: env.H, Comp: c}
	}
	return nil
}

func holdsOnHistories(f Formula, c *core.Computation) *Counterexample {
	// The lattice is enumerated once per computation and shared across
	// every restriction checked against it (same enumeration order, so
	// the same counterexample is found).
	for _, h := range history.Shared(c).Histories() {
		if !f.Eval(NewEnv(h)) {
			return &Counterexample{Formula: f, History: h, Comp: c}
		}
	}
	return nil
}

func holdsOnSequences(f Formula, c *core.Computation) *Counterexample {
	var cx *Counterexample
	history.EnumerateComplete(c, func(s history.Sequence) bool {
		if !f.Eval(NewSeqEnv(s, 0)) {
			cx = &Counterexample{Formula: f, History: s[0], Seq: s, Comp: c}
			return false
		}
		return true
	})
	return cx
}
