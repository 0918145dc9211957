package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gem/internal/core"
	"gem/internal/history"
)

// These tests cross-validate the checker's exact reductions against
// brute-force enumeration of complete valid history sequences — the
// definitional semantics — on random small computations and random
// formulae of the reducible shapes.

// randomComp builds a random legal computation with up to maxN events
// over up to 3 elements.
func randomComp(rng *rand.Rand, maxN int) *core.Computation {
	n := 2 + rng.Intn(maxN-1)
	b := core.NewBuilder()
	ids := make([]core.EventID, n)
	for i := 0; i < n; i++ {
		elem := string(rune('A' + rng.Intn(3)))
		class := string(rune('X' + rng.Intn(2)))
		ids[i] = b.Event(elem, class, core.NewParams(core.P("v", core.Int(int64(rng.Intn(3))))))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.Enable(ids[i], ids[j])
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// randImmediate builds a random quantified immediate formula.
func randImmediate(rng *rand.Rand) Formula {
	classes := []core.ClassRef{core.Ref("", "X"), core.Ref("", "Y"), core.Ref("A", "X")}
	atom := func(v string) Formula {
		switch rng.Intn(4) {
		case 0:
			return Occurred{Var: v}
		case 1:
			return New{Var: v}
		case 2:
			return Potential{Var: v}
		default:
			return ParamConst{X: v, P: "v", Op: OpLe, V: core.Int(int64(rng.Intn(3)))}
		}
	}
	body := atom("q")
	if rng.Intn(2) == 0 {
		body = Not{F: body}
	}
	if rng.Intn(2) == 0 {
		return ForAll{Var: "q", Ref: classes[rng.Intn(len(classes))], Body: body}
	}
	return Exists{Var: "q", Ref: classes[rng.Intn(len(classes))], Body: body}
}

// bruteForce decides the formula by enumerating every complete vhs.
func bruteForce(f Formula, c *core.Computation) bool {
	holds := true
	history.EnumerateComplete(c, func(s history.Sequence) bool {
		if !f.Eval(NewSeqEnv(s, 0)) {
			holds = false
			return false
		}
		return true
	})
	return holds
}

// TestQuickBoxInvariantReductionExact: □p (immediate p) decided over
// histories equals brute force over sequences.
func TestQuickBoxInvariantReductionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComp(rng, 6)
		formula := Box{F: randImmediate(rng)}
		got := Holds(formula, c, CheckOptions{}) == nil
		want := bruteForce(formula, c)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickPairReductionExact: □(A → □B) decided over history pairs
// equals brute force over sequences.
func TestQuickPairReductionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComp(rng, 6)
		inner := Implies{If: randImmediate(rng), Then: Box{F: randImmediate(rng)}}
		formula := Box{F: inner}
		if !pairCheckable(inner, true) {
			return true // shape guard (always true here, but keep honest)
		}
		got := Holds(formula, c, CheckOptions{}) == nil
		want := bruteForce(formula, c)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickPairReductionWithConjunction: richer pair-checkable bodies
// (conjunction/disjunction of immediate parts and positive boxes).
func TestQuickPairReductionWithConjunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComp(rng, 5)
		body := Or{
			Not{F: randImmediate(rng)},
			And{Box{F: randImmediate(rng)}, randImmediate(rng)},
		}
		if !pairCheckable(body, true) {
			t.Fatalf("body should be pair-checkable")
		}
		formula := Box{F: body}
		got := Holds(formula, c, CheckOptions{}) == nil
		want := bruteForce(formula, c)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiamondSequencesMatch: formulae with ◇ take the generic
// sequence path; sanity-check Holds against brute force there too.
func TestQuickDiamondSequencesMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComp(rng, 5)
		formula := Diamond{F: randImmediate(rng)}
		got := Holds(formula, c, CheckOptions{}) == nil
		want := bruteForce(formula, c)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPairCheckableShapes(t *testing.T) {
	imm := Occurred{Var: "e"}
	tests := []struct {
		f    Formula
		want bool
	}{
		{Box{F: imm}, true},
		{Diamond{F: imm}, false},
		{Implies{If: imm, Then: Box{F: imm}}, true},
		{Implies{If: Box{F: imm}, Then: imm}, false}, // box in negative position
		{Not{F: Box{F: imm}}, false},
		{Not{F: Not{F: Box{F: imm}}}, true},
		{And{imm, Box{F: imm}}, true},
		{Or{imm, Box{F: imm}}, true},
		{Iff{A: imm, B: imm}, true},
		{Iff{A: Box{F: imm}, B: imm}, false},
		{ForAll{Var: "x", Ref: core.Ref("", "X"), Body: Box{F: imm}}, true},
		{ExistsUnique{Var: "x", Ref: core.Ref("", "X"), Body: Box{F: imm}}, false},
		{Box{F: Box{F: imm}}, false}, // nested boxes are not immediate
	}
	for _, tt := range tests {
		if got := pairCheckable(tt.f, true); got != tt.want {
			t.Errorf("pairCheckable(%s) = %v, want %v", tt.f, got, tt.want)
		}
	}
}
