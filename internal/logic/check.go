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
	History history.History   // the violating history (first history of the sequence tail for temporal failures)
	Seq     history.Sequence  // the violating sequence, when checked over sequences
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
// produced it: the formula must evaluate to false on the reported
// witness (the sequence when present, the single history otherwise).
// Witnesses differ across engines — the sequence and lattice engines
// report complete valid history sequences, the invariant reduction a
// single history, the pair reduction a two-history fragment — but all of
// them must falsify the formula; the engine-agreement suites assert this
// in place of witness identity.
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
	if cx.Formula.Eval(NewSeqEnv(cx.Seq, 0)) {
		return fmt.Errorf("logic: counterexample sequence satisfies %s", cx.Formula)
	}
	return nil
}

// CheckOptions bound the cost of checking.
type CheckOptions struct {
	// MaxSequences caps the number of complete valid history sequences
	// examined for temporal formulae (0 = unlimited).
	MaxSequences int
	// MaxHistories caps the number of histories examined for history
	// (invariant) formulae (0 = unlimited).
	MaxHistories int
	// LinearOnly restricts sequence checking to step-size-one sequences
	// (linear extensions). Used by the E10 ablation; full GEM semantics
	// checks all valid history sequences.
	LinearOnly bool
	// Parallelism is the worker count used when independent checks are
	// fanned out through fanout.First: HoldsAll and HoldsEvery across
	// formulas/computations, verify.CheckAll across computations. 0 or 1
	// checks sequentially; parallel runs report the same verdicts and the
	// same first (lowest-index) counterexample. A single formula or
	// legality check is never split across workers.
	Parallelism int
	// Engine selects the temporal evaluation strategy (auto, lattice or
	// seq). Every engine reports the same verdicts; counterexamples are
	// always genuine falsifying witnesses (Counterexample.Verify) but may
	// differ in shape across engines — the lattice engine extracts its
	// own violating sequence instead of re-running the sequence cascade.
	// The zero value is EngineAuto.
	Engine Engine
	// Ctx carries cancellation and the observability span context
	// through the engines: the fan-outs (fanout.First) poll it and stop
	// promptly once it is cancelled, and spans opened under it nest in
	// the emitted trace.
	// nil means context.Background(): never cancelled. Individual
	// formula evaluations are not interrupted mid-enumeration, so
	// cancellation latency is bounded by one unit of work.
	Ctx context.Context
	// Cache, when non-nil, is consulted before each top-level formula
	// evaluation and written behind on a miss (lookup-before-evaluate).
	// It is bypassed whenever the options are not Cacheable (enumeration
	// budgets or the LinearOnly ablation change the checked semantics),
	// and nothing is written after the context has been cancelled — a
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
// With opts.Cache set (and the options Cacheable), the persistent store
// is consulted first and written behind on a miss; the cache is keyed at
// the whole-formula level, so the recursive And-split below always
// evaluates with the cache cleared.
func Holds(f Formula, c *core.Computation, opts CheckOptions) *Counterexample {
	if cache := opts.Cache; cache != nil {
		opts.Cache = nil
		if opts.Cacheable() {
			if cx, ok := cache.Lookup(f, c, opts.Engine); ok {
				return cx
			}
			cx := Holds(f, c, opts)
			// A cancelled context may have truncated the evaluation (the
			// engines poll it between units of work); a truncated "pass"
			// is not a verdict, so skip the write-behind entirely.
			if !Cancelled(Done(opts.Ctx)) {
				cache.Store(f, c, opts.Engine, cx)
			}
			return cx
		}
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
		// The lattice fixpoint engine (latticeeval.go) bounds every
		// temporal formula over the history lattice instead of the
		// exponentially larger sequence set, decides most of them (pass
		// and fail alike, extracting its own violating sequence on
		// failure), and reports "inconclusive" for the rest. It is
		// bypassed under enumeration budgets and the LinearOnly ablation,
		// which change the checked semantics.
		useLattice := opts.Engine != EngineSeq && !opts.LinearOnly &&
			opts.MaxSequences == 0 && opts.MaxHistories == 0
		// A forced EngineLattice routes every temporal formula through
		// the fixpoint evaluator first; only an inconclusive outcome
		// (observable as the engine.lattice.fallback counter) delegates
		// to the sequence strategies.
		if useLattice && opts.Engine == EngineLattice {
			if cx, decided := latticeAttempt(opts.Ctx, f, c); decided {
				return cx
			}
			seq := opts
			seq.Engine = EngineSeq
			return Holds(f, c, seq)
		}
		// □p for immediate p is an invariant: it holds on every valid
		// history sequence iff p holds at every history (every history
		// occurs in some complete sequence, and every sequence member is
		// a history). Deciding it over histories avoids enumerating the
		// exponentially larger sequence set, exactly — and avoids the
		// lattice engine's step-DAG bitsets, so auto keeps it first.
		if box, ok := f.(Box); ok && !HasTemporal(box.F) {
			_, sp := obs.StartSpan(opts.Ctx, "engine.histories")
			cx := holdsOnHistories(box.F, c, opts.MaxHistories)
			sp.End()
			return cx
		}
		// EngineAuto: a decided lattice run (either verdict) settles the
		// check; only inconclusive bounds fall through to the strategies
		// below.
		if useLattice {
			if cx, decided := latticeAttempt(opts.Ctx, f, c); decided {
				return cx
			}
		}
		// □φ where φ's only temporal subformulas are positive □ of
		// immediate bodies (e.g. the paper's priority restriction
		// □(pending → □(served-ordering))) reduces exactly to a check
		// over pairs of histories h1 ⊑ h2: immediate parts of φ read h1,
		// inner □ bodies must hold at every h2 ⊇ h1. Every such pair
		// occurs in some complete valid history sequence and vice versa.
		if box, ok := f.(Box); ok && !opts.LinearOnly && pairCheckable(box.F, true) {
			_, sp := obs.StartSpan(opts.Ctx, "engine.pairs")
			cx := holdsOnHistoryPairs(box.F, c, opts.MaxHistories)
			sp.End()
			return cx
		}
		_, sp := obs.StartSpan(opts.Ctx, "engine.seq")
		cx := holdsOnSequences(f, c, opts)
		sp.End()
		return cx
	case HasHistoryPredicate(f):
		_, sp := obs.StartSpan(opts.Ctx, "engine.histories")
		cx := holdsOnHistories(f, c, opts.MaxHistories)
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
// only case that still delegates to another engine stage.
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

func holdsOnHistories(f Formula, c *core.Computation, limit int) *Counterexample {
	if limit > 0 {
		// A history budget bounds the cost of this one check; bypass the
		// shared lattice, which always enumerates fully.
		var cx *Counterexample
		history.Enumerate(c, limit, func(h history.History) bool {
			if !f.Eval(NewEnv(h)) {
				cx = &Counterexample{Formula: f, History: h, Comp: c}
				return false
			}
			return true
		})
		return cx
	}
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

func holdsOnSequences(f Formula, c *core.Computation, opts CheckOptions) *Counterexample {
	var cx *Counterexample
	examine := func(s history.Sequence) bool {
		if !f.Eval(NewSeqEnv(s, 0)) {
			cx = &Counterexample{Formula: f, History: s[0], Seq: s, Comp: c}
			return false
		}
		return true
	}
	if opts.LinearOnly {
		history.EnumerateLinear(c, opts.MaxSequences, examine)
	} else {
		history.EnumerateComplete(c, opts.MaxSequences, examine)
	}
	return cx
}

// pairCheckable reports whether the formula's temporal subformulas are
// exactly positive-polarity Box operators with immediate bodies, and no
// Diamond occurs. For such formulas □f is decidable over history pairs.
func pairCheckable(f Formula, positive bool) bool {
	switch g := f.(type) {
	case Box:
		return positive && !HasTemporal(g.F)
	case Diamond:
		return false
	case Not:
		return pairCheckable(g.F, !positive)
	case And:
		for _, sub := range g {
			if !pairCheckable(sub, positive) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range g {
			if !pairCheckable(sub, positive) {
				return false
			}
		}
		return true
	case Implies:
		return pairCheckable(g.If, !positive) && pairCheckable(g.Then, positive)
	case Iff:
		// Both polarities occur on both sides.
		return !HasTemporal(g.A) && !HasTemporal(g.B)
	case ForAll:
		return pairCheckable(g.Body, positive)
	case Exists:
		return pairCheckable(g.Body, positive)
	case ExistsUnique:
		return !HasTemporal(g.Body)
	case AtMostOne:
		return !HasTemporal(g.Body)
	case ForAllThread:
		return pairCheckable(g.Body, positive)
	case ExistsThread:
		return pairCheckable(g.Body, positive)
	case ForAllIn:
		return pairCheckable(g.Body, positive)
	case ExistsUniqueIn:
		return !HasTemporal(g.Body)
	default:
		return !HasTemporal(f)
	}
}

// holdsOnHistoryPairs decides □f over all valid history sequences by
// evaluating f on every pair h1 ⊑ h2, presented to the evaluator as the
// two-history sequence (h1, h2): immediate parts of f read h1, inner □
// bodies are required at both h1 and h2. Sound and complete for
// pairCheckable formulas.
func holdsOnHistoryPairs(f Formula, c *core.Computation, limit int) *Counterexample {
	if limit > 0 {
		var all []history.History
		history.Enumerate(c, limit, func(h history.History) bool {
			all = append(all, h)
			return true
		})
		for _, h1 := range all {
			for _, h2 := range all {
				if !h1.Set().SubsetOf(h2.Set()) {
					continue
				}
				seq := history.Sequence{h1, h2}
				if !f.Eval(NewSeqEnv(seq, 0)) {
					return &Counterexample{Formula: Box{F: f}, History: h1, Seq: seq, Comp: c}
				}
			}
		}
		return nil
	}
	// The ⊑ pair relation is memoized on the computation alongside the
	// lattice itself; Pairs visits pairs in the order the nested loop
	// above would, so the counterexample is identical.
	var cx *Counterexample
	history.Shared(c).Pairs(func(h1, h2 history.History) bool {
		seq := history.Sequence{h1, h2}
		if !f.Eval(NewSeqEnv(seq, 0)) {
			cx = &Counterexample{Formula: Box{F: f}, History: h1, Seq: seq, Comp: c}
			return false
		}
		return true
	})
	return cx
}
