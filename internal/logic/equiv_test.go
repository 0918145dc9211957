package logic

import (
	"math/rand"

	"gem/internal/core"
	"gem/internal/history"
)

// The random computations and formulas the lattice and oracle tests
// share, and brute-force enumeration of complete valid history sequences
// through the production evaluator.

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
