package logic_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/logic"
	"gem/internal/oracle"
)

// These tests compare Holds, and the lattice engine alone, with the
// oracle (internal/oracle), which decides a restriction from the
// definitions with code of its own, on random small computations and on
// random formulas of the shapes each strategy of Holds takes.

// sameAsOracle reports whether Holds judges formula on c as the oracle
// does, with a witness that passes Verify.
func sameAsOracle(t *testing.T, formula logic.Formula, c *core.Computation) bool {
	t.Helper()
	want, err := oracle.Holds(formula, c)
	if err != nil {
		t.Logf("oracle refused %s: %v", formula, err)
		return false
	}
	cx := logic.Holds(formula, c, logic.CheckOptions{})
	if (cx == nil) != want {
		t.Logf("%s\non %s: Holds %v, oracle %v", formula, c, cx == nil, want)
		return false
	}
	if cx != nil {
		if err := cx.Verify(); err != nil {
			t.Logf("invalid counterexample for %s: %v", formula, err)
			return false
		}
	}
	return true
}

// TestQuickEngineAgreement: Holds and the oracle report identical
// verdicts on random computations over the full temporal language, and
// every counterexample independently falsifies the formula
// (Counterexample.Verify). Where the lattice engine alone decides a
// formula, its verdict is the oracle's too, with a complete witness.
func TestQuickEngineAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomComp(rng, 6)
		formula := logic.RandTemporal(rng)
		if !sameAsOracle(t, formula, c) {
			return false
		}
		if cx, decided := logic.LatticeDecide(formula, c); decided {
			want, _ := oracle.Holds(formula, c)
			if (cx == nil) != want {
				t.Logf("%s: lattice %v, oracle %v", formula, cx == nil, want)
				return false
			}
			if cx != nil && !logic.RequireLatticeWitness(t, cx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoxInvariantReductionExact: □p (immediate p), decided over
// histories, equals the oracle's judgement over sequences.
func TestQuickBoxInvariantReductionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomComp(rng, 6)
		return sameAsOracle(t, logic.Box{F: logic.RandImmediate(rng)}, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickPairReductionExact: □(A → □B), the shape the deleted
// history-pair reduction decided, equals the oracle's judgement. Holds
// now decides it on the lattice, or by enumeration.
func TestQuickPairReductionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomComp(rng, 6)
		inner := logic.Implies{If: logic.RandImmediate(rng), Then: logic.Box{F: logic.RandImmediate(rng)}}
		return sameAsOracle(t, logic.Box{F: inner}, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickPairReductionWithConjunction: richer bodies of the same family
// (conjunction and disjunction of immediate parts and positive boxes).
func TestQuickPairReductionWithConjunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomComp(rng, 5)
		body := logic.Or{
			logic.Not{F: logic.RandImmediate(rng)},
			logic.And{logic.Box{F: logic.RandImmediate(rng)}, logic.RandImmediate(rng)},
		}
		return sameAsOracle(t, logic.Box{F: body}, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiamondSequencesMatch: formulae with ◇ agree with the oracle
// too.
func TestQuickDiamondSequencesMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomComp(rng, 5)
		return sameAsOracle(t, logic.Diamond{F: logic.RandImmediate(rng)}, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestThreeBoxedDisjunctsRefuted is the case the history-pair reduction
// got wrong. Events e1, e2, e3 follow one another at element A, and f is
// alone at B. For
//
//	a = ¬(occurred(x1) ∧ ¬occurred(x2)) ∨ occurred(y), false only at {e1}
//	b = ¬(occurred(x2) ∧ ¬occurred(x3)) ∨ occurred(y), false only at {e1, e2}
//	c = ¬occurred(x3) ∨ occurred(y),                   false only at {e1, e2, e3}
//
// the sequence ∅, {e1}, {e1,e2}, {e1,e2,e3}, full falsifies
// □(∀x1 ∀x2 ∀x3 ∀y (□a ∨ □b ∨ □c)) at position 0, yet for every pair of
// histories h1 ⊑ h2 one disjunct holds at both, so the reduction passed
// it. The lattice's bound is inconclusive here; Holds must refute the
// formula with a complete witness.
func TestThreeBoxedDisjunctsRefuted(t *testing.T) {
	b := core.NewBuilder()
	e1 := b.Event("A", "E1", core.Params{})
	e2 := b.Event("A", "E2", core.Params{})
	e3 := b.Event("A", "E3", core.Params{})
	b.Event("B", "F", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	occ := func(v string) logic.Formula { return logic.Occurred{Var: v} }
	not := func(f logic.Formula) logic.Formula { return logic.Not{F: f} }
	a := logic.Or{not(logic.And{occ("x1"), not(occ("x2"))}), occ("y")}
	bb := logic.Or{not(logic.And{occ("x2"), not(occ("x3"))}), occ("y")}
	cc := logic.Or{not(occ("x3")), occ("y")}
	f := logic.Box{F: logic.ForAll{Var: "x1", Ref: core.Ref("A", "E1"), Body: logic.ForAll{Var: "x2", Ref: core.Ref("A", "E2"),
		Body: logic.ForAll{Var: "x3", Ref: core.Ref("A", "E3"), Body: logic.ForAll{Var: "y", Ref: core.Ref("B", "F"),
			Body: logic.Or{logic.Box{F: a}, logic.Box{F: bb}, logic.Box{F: cc}}}}}}}

	if holds, err := oracle.Holds(f, c); err != nil || holds {
		t.Fatalf("oracle: holds=%v err=%v, want a violation", holds, err)
	}
	if _, decided := logic.LatticeDecide(f, c); decided {
		t.Log("the lattice engine decided the formula on its own")
	}
	cx := logic.Holds(f, c, logic.CheckOptions{})
	if cx == nil {
		t.Fatalf("Holds passed %s; the sequence through {e1}, {e1,e2}, {e1,e2,e3} falsifies it", f)
	}
	if err := cx.Verify(); err != nil {
		t.Fatalf("witness fails Verify: %v", err)
	}
	// Every sequence whose steps pass {e1}, {e1,e2} and {e1,e2,e3} before f
	// falsifies the formula, and no other does.
	steps := map[string]bool{}
	for _, h := range cx.Seq {
		steps[h.String()] = true
	}
	for _, want := range [][]core.EventID{{e1}, {e1, e2}, {e1, e2, e3}} {
		h := history.Full(c)
		for _, other := range history.Shared(c).Histories() {
			if other.Len() == len(want) && hasAll(other, want) {
				h = other
			}
		}
		if !steps[h.String()] {
			t.Errorf("witness %s misses history %s", cx.Seq, h)
		}
	}
}

func hasAll(h history.History, ids []core.EventID) bool {
	for _, id := range ids {
		if !h.Has(id) {
			return false
		}
	}
	return true
}
