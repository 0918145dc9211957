package logic

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gem/internal/core"
	"gem/internal/obs"
)

// These tests counter-verify the lattice fixpoint engine against the
// definitional sequence semantics: whenever the engine's bounds decide a
// formula (before any fallback) the verdict must equal brute-force
// enumeration on randomized computations and formulas, and every
// extracted counterexample must be a complete valid history sequence that
// falsifies the formula. oracle_test.go checks Holds and the lattice
// against the independent oracle.

// SequenceInsensitive is the syntactic oracle of the lattice engine's
// exactness rules. It reports whether the formula's truth over all
// complete valid history sequences is determined by the history lattice
// alone — i.e. the lattice engine's lower bound is exact for it, so its
// verdict (pass and fail alike) provably equals the sequence
// enumerator's. It is a thin syntactic wrapper over the same per-node
// exactness rules the evaluator applies; the evaluator itself can decide
// strictly more (data-dependent single-binding quantifiers, and definite
// failures via the upper bound on any shape), so a false answer here does
// not mean the engine will fall back — it means the fallback is possible.
func SequenceInsensitive(f Formula) bool { return exactLower(f) }

// exactLower reports that the engine's lower rules are exact for f,
// judged syntactically (binding domains unknown, so quantifiers are
// treated as multi-binding). The evaluator recomputes the same analysis
// per node with domain sizes in hand.
func exactLower(f Formula) bool {
	if immediate(f) {
		return true
	}
	switch g := f.(type) {
	case Box:
		return exactLower(g.F)
	case Diamond:
		return immediate(g.F)
	case Not:
		return exactUpper(g.F)
	case And:
		for _, sub := range g {
			if !exactLower(sub) {
				return false
			}
		}
		return true
	case Or:
		nonImm := 0
		for _, sub := range g {
			if !exactLower(sub) {
				return false
			}
			if !immediate(sub) {
				nonImm++
			}
		}
		return nonImm <= 1
	case Implies:
		return exactUpper(g.If) && exactLower(g.Then) &&
			(immediate(g.If) || immediate(g.Then))
	case ForAll:
		return exactLower(g.Body)
	case ForAllThread:
		return exactLower(g.Body)
	case ForAllIn:
		return exactLower(g.Body)
	case Exists, ExistsThread:
		// lower(∃x φ) = ∪ₓ lower(φₓ) requires one binding to witness φ in
		// every sequence, but different sequences may use different
		// witnesses: not exact for non-immediate bodies over multi-binding
		// domains (immediate ones were accepted above; the evaluator also
		// accepts domains of ≤ 1 binding).
		return false
	default:
		// Iff, ExistsUnique, AtMostOne, ExistsUniqueIn mix polarities or
		// count across bindings: beyond their immediate forms (handled
		// above) the evaluator bounds them soundly but inexactly.
		return false
	}
}

// exactUpper reports that the engine's upper rules are exact for f,
// judged syntactically like exactLower.
func exactUpper(f Formula) bool {
	if immediate(f) {
		return true
	}
	switch g := f.(type) {
	case Box:
		return immediate(g.F)
	case Diamond:
		return exactUpper(g.F)
	case Not:
		return exactLower(g.F)
	case Or:
		for _, sub := range g {
			if !exactUpper(sub) {
				return false
			}
		}
		return true
	case And:
		nonImm := 0
		for _, sub := range g {
			if !exactUpper(sub) {
				return false
			}
			if !immediate(sub) {
				nonImm++
			}
		}
		return nonImm <= 1
	case Implies:
		return exactLower(g.If) && exactUpper(g.Then)
	case Exists:
		return exactUpper(g.Body)
	case ExistsThread:
		return exactUpper(g.Body)
	case ForAll:
		return false // ∩ over several non-immediate bindings is not exact
	case ForAllThread:
		return false
	case ForAllIn:
		return false
	default:
		return false
	}
}

// TestSequenceInsensitiveShapes pins the syntactic predicate above:
// the shapes whose lower bound is exact by the per-node rules alone (no
// binding-domain knowledge). The evaluator applies the same rules per
// node — plus data-dependent single-binding relaxations — so a false
// entry here means "fallback possible", not "fallback certain".
func TestSequenceInsensitiveShapes(t *testing.T) {
	imm := Occurred{Var: "e"}
	imm2 := New{Var: "e"}
	tests := []struct {
		f    Formula
		want bool
	}{
		{imm, true},
		{Box{F: imm}, true},
		{Diamond{F: imm}, true},
		{Box{F: Box{F: imm}}, true},
		{Box{F: Diamond{F: imm}}, true},  // leads-to: □◇p
		{Diamond{F: Box{F: imm}}, false}, // exact AF needs an immediate body
		{Diamond{F: Diamond{F: imm}}, false},
		{Not{F: Box{F: imm}}, true}, // ¬□p = upper polarity, EG on immediate
		{Not{F: Diamond{F: Diamond{F: imm}}}, true},
		{Not{F: Diamond{F: Box{F: imm}}}, true},          // upper(◇□p) = EF∘EG, both exact
		{Not{F: Diamond{F: Box{F: Box{F: imm}}}}, false}, // exact EG needs an immediate body
		{And{Box{F: imm}, Diamond{F: imm2}}, true},
		{Or{Box{F: imm}, imm2}, true},
		// Two sequence-dependent disjuncts: the lower bound under-
		// approximates (per-node lowExact=false), so the verdict can be
		// inconclusive — though the upper bound still decides definite
		// failures of this shape without fallback.
		{Or{Box{F: imm}, Diamond{F: imm2}}, false},
		{Implies{If: imm, Then: Box{F: imm2}}, true},
		{Implies{If: Box{F: imm}, Then: imm2}, true},                      // immediate Then; upper(□imm) is exact (EG)
		{Implies{If: Diamond{F: imm}, Then: imm2}, true},                  // immediate Then; upper(◇imm) is exact (EF)
		{Implies{If: Diamond{F: Box{F: imm}}, Then: imm2}, true},          // upper(◇□p) exact as above
		{Implies{If: Diamond{F: Box{F: Box{F: imm}}}, Then: imm2}, false}, // EG of a non-immediate body
		{Box{F: Implies{If: imm, Then: Box{F: imm2}}}, true},              // the paper's priority shape
		{Box{F: Implies{If: imm, Then: Diamond{F: imm2}}}, true},
		{ForAll{Var: "e", Ref: core.Ref("", "X"), Body: Box{F: imm}}, true},
		// ∃ with a non-immediate body: the union of per-witness lower
		// bounds is sound but not exact over multi-binding domains (the
		// evaluator accepts ≤1-binding domains at run time).
		{Exists{Var: "e", Ref: core.Ref("", "X"), Body: Box{F: imm}}, false},
		{Exists{Var: "e", Ref: core.Ref("", "X"), Body: imm}, true}, // immediate overall
		{Not{F: ForAll{Var: "e", Ref: core.Ref("", "X"), Body: Box{F: imm}}}, false},
		// upper(∃x □p) = ∪ₓ upper(□p) is exact ("some sequence" commutes
		// with ∃x), so the negation has an exact lower bound.
		{Not{F: Exists{Var: "e", Ref: core.Ref("", "X"), Body: Box{F: imm}}}, true},
		{ExistsUnique{Var: "e", Ref: core.Ref("", "X"), Body: Box{F: imm}}, false},
		{Iff{A: Box{F: imm}, B: imm2}, false},
	}
	for _, tt := range tests {
		if got := SequenceInsensitive(tt.f); got != tt.want {
			t.Errorf("SequenceInsensitive(%s) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

// randFragment builds a random formula inside the syntactically exact
// fragment, with enough shape diversity to exercise every exact rule:
// nested □, ◇ of immediate bodies, leads-to, negated temporals, guarded
// implications and quantified bodies.
func randFragment(rng *rand.Rand) Formula {
	imm := func() Formula { return randImmediate(rng) }
	var f Formula
	switch rng.Intn(10) {
	case 0:
		f = Box{F: imm()}
	case 1:
		f = Diamond{F: imm()}
	case 2:
		f = Box{F: Box{F: imm()}}
	case 3:
		f = Box{F: Diamond{F: imm()}}
	case 4:
		f = Not{F: Box{F: imm()}}
	case 5:
		f = Not{F: Diamond{F: imm()}}
	case 6:
		f = Box{F: Implies{If: imm(), Then: Box{F: imm()}}}
	case 7:
		f = Box{F: Implies{If: imm(), Then: Diamond{F: imm()}}}
	case 8:
		f = And{Box{F: imm()}, Diamond{F: imm()}}
	case 9:
		f = Or{Box{F: imm()}, imm()}
	}
	if rng.Intn(4) == 0 {
		f = ForAll{Var: "z", Ref: core.Ref("", "X"), Body: Box{F: Implies{If: Occurred{Var: "z"}, Then: f}}}
	}
	return f
}

// randBoundAtom builds a random immediate atom over a quantifier-bound
// event variable.
func randBoundAtom(rng *rand.Rand, v string) Formula {
	var atom Formula
	switch rng.Intn(3) {
	case 0:
		atom = Occurred{Var: v}
	case 1:
		atom = New{Var: v}
	default:
		atom = Potential{Var: v}
	}
	if rng.Intn(3) == 0 {
		return Not{F: atom}
	}
	return atom
}

// randTemporal builds a random formula over the FULL temporal language,
// including the newly covered shapes the syntactic fragment rejects:
// ∃/∃!/at-most-one with non-immediate bodies, two-disjunct temporal ∨,
// and temporal ≡. The lattice engine must bound all of them soundly and
// may decide them (definite failures always, successes when a bound is
// exact or tight enough).
func randTemporal(rng *rand.Rand) Formula {
	imm := func() Formula { return randImmediate(rng) }
	classes := []core.ClassRef{core.Ref("", "X"), core.Ref("", "Y"), core.Ref("A", "X")}
	ref := func() core.ClassRef { return classes[rng.Intn(len(classes))] }
	temporalBody := func(v string) Formula {
		if rng.Intn(2) == 0 {
			return Box{F: randBoundAtom(rng, v)}
		}
		return Diamond{F: randBoundAtom(rng, v)}
	}
	var f Formula
	switch rng.Intn(16) {
	case 0, 1, 2, 3:
		f = randFragment(rng)
	case 4:
		f = Or{Box{F: imm()}, Diamond{F: imm()}} // two temporal disjuncts
	case 5:
		f = Or{Box{F: imm()}, Box{F: imm()}}
	case 6:
		f = Or{Diamond{F: imm()}, Diamond{F: imm()}}
	case 7:
		f = Exists{Var: "z", Ref: ref(), Body: temporalBody("z")} // ∃ non-immediate
	case 8:
		f = Not{F: Exists{Var: "z", Ref: ref(), Body: temporalBody("z")}}
	case 9:
		f = ExistsUnique{Var: "z", Ref: ref(), Body: temporalBody("z")}
	case 10:
		f = AtMostOne{Var: "z", Ref: ref(), Body: temporalBody("z")}
	case 11:
		f = Iff{A: Box{F: imm()}, B: imm()}
	case 12:
		f = Iff{A: Diamond{F: imm()}, B: Diamond{F: imm()}}
	case 13:
		f = ForAll{Var: "z", Ref: ref(), Body: Or{temporalBody("z"), temporalBody("z")}}
	case 14:
		f = And{Exists{Var: "z", Ref: ref(), Body: temporalBody("z")}, Box{F: imm()}}
	case 15:
		f = Implies{If: Exists{Var: "z", Ref: ref(), Body: temporalBody("z")}, Then: Diamond{F: imm()}}
	}
	return f
}

// requireLatticeWitness asserts the lattice engine's counterexample
// contract: a complete valid history sequence, starting at the empty
// history, that falsifies the formula.
func requireLatticeWitness(t *testing.T, cx *Counterexample) bool {
	t.Helper()
	if cx.Seq == nil {
		t.Logf("lattice counterexample has no sequence: %v", cx.Error())
		return false
	}
	if err := cx.Seq.Validate(); err != nil {
		t.Logf("lattice witness is not a valid history sequence: %v", err)
		return false
	}
	if !cx.Seq.IsComplete() {
		t.Logf("lattice witness is not a complete sequence: %v", cx.Seq)
		return false
	}
	if cx.Seq[0].Len() != 0 {
		t.Logf("lattice witness does not start at the empty history")
		return false
	}
	if err := cx.Verify(); err != nil {
		t.Logf("lattice witness does not falsify the formula: %v", err)
		return false
	}
	return true
}

// TestQuickLatticeFragmentAgreesWithBruteForce compares the lattice
// engine's raw outcome — not Holds, which masks a lattice bug by
// delegating — against brute-force sequence enumeration on the
// syntactically exact fragment, where it must always decide. 150 random
// (computation, formula) pairs exceed the issue's 100-computation floor.
func TestQuickLatticeFragmentAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComp(rng, 6)
		formula := randFragment(rng)
		if !SequenceInsensitive(formula) {
			t.Fatalf("randFragment produced a non-fragment formula: %s", formula)
		}
		cx, decided := latticeDecide(context.Background(), formula, c)
		if !decided {
			t.Logf("fragment formula not decided: %s", formula)
			return false
		}
		want := bruteForce(formula, c)
		if (cx == nil) != want {
			t.Logf("disagreement on %s\n%s lattice=%v brute=%v", formula, c, cx == nil, want)
			return false
		}
		if cx != nil && !requireLatticeWitness(t, cx) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLatticeFullLanguageSound runs the engine over the FULL
// language: whatever it decides must match brute force, every witness
// must be genuine, and formulas that brute-force FAIL must always be
// decided (failures never fall back — either ¬upper(∅) or an exact lower
// bound catches them... the former for inexact shapes, by soundness of
// the bounds; the only permitted indecision is on satisfied formulas
// whose lower bound is both inexact and too coarse).
func TestQuickLatticeFullLanguageSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComp(rng, 6)
		formula := randTemporal(rng)
		cx, decided := latticeDecide(context.Background(), formula, c)
		want := bruteForce(formula, c)
		if !decided {
			if SequenceInsensitive(formula) {
				t.Logf("syntactically exact formula not decided: %s", formula)
				return false
			}
			return true
		}
		if (cx == nil) != want {
			t.Logf("disagreement on %s\n%s lattice=%v brute=%v", formula, c, cx == nil, want)
			return false
		}
		if cx != nil && !requireLatticeWitness(t, cx) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// twoConcurrentComp builds the smallest computation with real sequence
// branching: one X event and one Y event, unordered (three complete
// sequences: a-first, b-first, simultaneous).
func twoConcurrentComp(t *testing.T) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	b.Event("A", "X", core.Params{})
	b.Event("B", "Y", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLatticeNativeCounterexamples: failing checks on the shapes the old
// engine delegated (∃ with a non-immediate body, two-disjunct temporal ∨)
// now complete inside the lattice engine — no engine.seq span, no
// fallback counter — and produce a complete valid falsifying sequence.
func TestLatticeNativeCounterexamples(t *testing.T) {
	c := twoConcurrentComp(t)
	existsX := Exists{Var: "x", Ref: core.Ref("", "X"), Body: Occurred{Var: "x"}}
	existsY := Exists{Var: "y", Ref: core.Ref("", "Y"), Body: Occurred{Var: "y"}}
	for _, tt := range []struct {
		name string
		f    Formula
	}{
		// ∃ over two bindings with a temporal body; false because no event
		// has occurred at the empty history, where every sequence starts.
		{"exists-nonimmediate", ForAllIn{Var: "w", Refs: []core.ClassRef{core.Ref("", "X"), core.Ref("", "Y")},
			Body: Exists{Var: "x", Ref: core.Ref("", "X"), Body: Box{F: Occurred{Var: "x"}}}}},
		// Two temporal disjuncts, both false at position 0 of every
		// sequence.
		{"temporal-or", Or{Box{F: And{existsX, existsY}}, Box{F: existsX}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			obs.Enable()
			defer obs.Disable()
			cx, decided := latticeAttempt(context.Background(), tt.f, c)
			snap := obs.Snapshot()
			if !decided {
				t.Fatalf("%s left undecided", tt.f)
			}
			if cx == nil {
				t.Fatalf("%s should fail on the two-event computation", tt.f)
			}
			if !requireLatticeWitness(t, cx) {
				t.Fatalf("lattice witness contract violated")
			}
			if n := snap.Counters["engine.lattice.fallback"]; n != 0 {
				t.Errorf("check fell back to sequence enumeration %d times", n)
			}
			if n := snap.Counters["engine.lattice.cex"]; n == 0 {
				t.Error("lattice counterexample counter not recorded")
			}
			for _, sp := range snap.Spans {
				if sp.Name == "engine.seq" {
					t.Error("sequence cascade ran despite lattice-native counterexample")
				}
			}
		})
	}
}

// TestLatticeFallbackObservable: a satisfied formula whose lower bound is
// genuinely too coarse (two temporal disjuncts covering all sequences
// only jointly) must fall back — and the fallback must be visible on the
// obs counter, which is what ci.sh gates on.
func TestLatticeFallbackObservable(t *testing.T) {
	c := twoConcurrentComp(t)
	existsX := Exists{Var: "x", Ref: core.Ref("", "X"), Body: Occurred{Var: "x"}}
	existsY := Exists{Var: "y", Ref: core.Ref("", "Y"), Body: Occurred{Var: "y"}}
	// p = "a occurred or b has not"; q symmetrically. Each sequence keeps
	// p or keeps q throughout, but neither invariant covers all
	// sequences: □p ∨ □q holds while lower(□p)∪lower(□q) misses ∅.
	p := Or{existsX, Not{F: existsY}}
	q := Or{existsY, Not{F: existsX}}
	f := Or{Box{F: p}, Box{F: q}}
	obs.Enable()
	defer obs.Disable()
	if cx := Holds(f, c, CheckOptions{}); cx != nil {
		t.Fatalf("formula should hold: %v", cx.Error())
	}
	snap := obs.Snapshot()
	if n := snap.Counters["engine.lattice.fallback"]; n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
	if cx, decided := latticeDecide(context.Background(), f, c); decided {
		t.Errorf("bounds should be inconclusive here, got decided (cx=%v)", cx)
	}
}
