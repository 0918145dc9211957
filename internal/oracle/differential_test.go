package oracle_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/oracle"
	"gem/internal/thread"
)

// These tests compare the production checker, logic.Holds, with the
// oracle on random computations and on random formulas over the whole
// restriction language. A kernel bug that moves every production engine
// together — a quantifier domain, a binding, a connective — shows here
// as a disagreement with code that shares none of it.

var (
	refs     = []core.ClassRef{core.Ref("", "X"), core.Ref("", "Y"), core.Ref("A", "X"), core.Ref("B", ""), core.Ref("", "")}
	elements = []string{"A", "B", "C"}
	types    = []string{"pi", "rho"}
	ops      = []logic.CmpOp{logic.OpEq, logic.OpNe, logic.OpLt, logic.OpLe, logic.OpGt, logic.OpGe}
)

// randComp builds a random computation of 2 to maxN events over three
// elements and classes X, Y and Z, with an int parameter v on most
// events, random enable edges from earlier to later events, and random
// labels of up to three pi instances and one rho instance.
func randComp(rng *rand.Rand, maxN int) *core.Computation {
	n := 2 + rng.Intn(maxN-1)
	b := core.NewBuilder()
	for i := 0; i < n; i++ {
		var ps core.Params
		if rng.Intn(5) > 0 {
			ps = core.NewParams(core.P("v", core.Int(int64(rng.Intn(3)))))
		}
		id := b.Event(elements[rng.Intn(3)], string(rune('X'+rng.Intn(3))), ps)
		for k := 1; k <= 3; k++ {
			if rng.Intn(3) == 0 {
				b.Thread(id, thread.ID("pi", k))
			}
		}
		if rng.Intn(4) == 0 {
			b.Thread(id, thread.ID("rho", 1))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.Enable(core.EventID(i), core.EventID(j))
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// gen builds random well-scoped formulas: every atom names only
// variables bound around it. Variable names come from small pools, so
// nested quantifiers shadow one another often.
type gen struct {
	rng      *rand.Rand
	events   []string // event variables in scope, innermost last
	threads  []string // thread variables in scope
	temporal int      // □/◇ operators still allowed
}

func (g *gen) pick(vs []string) string { return vs[g.rng.Intn(len(vs))] }

func (g *gen) atom() logic.Formula {
	r := g.rng
	if len(g.events) == 0 {
		switch r.Intn(4) {
		case 0:
			return logic.TrueF{}
		case 1:
			return logic.FalseF{}
		case 2:
			return logic.CountDiff{A: refs[r.Intn(len(refs))], B: refs[r.Intn(len(refs))], Min: r.Intn(3) - 1, Max: r.Intn(3), NoMax: r.Intn(3) == 0}
		default:
			return logic.FIFOValues{A: refs[r.Intn(len(refs))], PA: "v", B: refs[r.Intn(len(refs))], PB: "v"}
		}
	}
	x, y := g.pick(g.events), g.pick(g.events)
	ref := refs[r.Intn(len(refs))]
	switch r.Intn(15) {
	case 0:
		return logic.Occurred{Var: x}
	case 1:
		return logic.New{Var: x}
	case 2:
		return logic.Potential{Var: x}
	case 3:
		return logic.AtControl{Var: x, Ref: ref}
	case 4:
		return logic.AtElement{Var: x, Element: elements[r.Intn(3)]}
	case 5:
		return logic.InClass{Var: x, Ref: ref}
	case 6:
		return logic.Enables{X: x, Y: y}
	case 7:
		return logic.ElemOrdered{X: x, Y: y}
	case 8:
		return logic.Precedes{X: x, Y: y}
	case 9:
		return logic.ConcurrentWith{X: x, Y: y}
	case 10:
		return logic.SameEvent{X: x, Y: y}
	case 11:
		return logic.ParamCmp{X: x, P: "v", Op: ops[r.Intn(len(ops))], Y: y, Q: "v"}
	case 12:
		return logic.ParamConst{X: x, P: "v", Op: ops[r.Intn(len(ops))], V: core.Int(int64(r.Intn(3)))}
	case 13:
		if len(g.threads) > 0 {
			return logic.OnThread{X: x, T: g.pick(g.threads)}
		}
		return logic.Occurred{Var: x}
	default:
		if len(g.threads) > 0 {
			return logic.ThreadsDistinct{T1: g.pick(g.threads), T2: g.pick(g.threads)}
		}
		return logic.New{Var: x}
	}
}

// quantified binds v around a body built at the given depth.
func (g *gen) quantified(v string, thread bool, depth int) logic.Formula {
	if thread {
		g.threads = append(g.threads, v)
		defer func() { g.threads = g.threads[:len(g.threads)-1] }()
	} else {
		g.events = append(g.events, v)
		defer func() { g.events = g.events[:len(g.events)-1] }()
	}
	return g.formula(depth)
}

func (g *gen) formula(depth int) logic.Formula {
	r := g.rng
	if depth == 0 || r.Intn(5) == 0 {
		return g.atom()
	}
	d := depth - 1
	ev := []string{"x", "y"}[r.Intn(2)]
	th := []string{"t", "u"}[r.Intn(2)]
	ref := refs[r.Intn(len(refs))]
	union := []core.ClassRef{refs[r.Intn(len(refs))], refs[r.Intn(len(refs))]}
	switch r.Intn(17) {
	case 0:
		return logic.Not{F: g.formula(d)}
	case 1:
		and := logic.And{}
		for i := r.Intn(4); i > 0; i-- {
			and = append(and, g.formula(d))
		}
		return and
	case 2:
		or := logic.Or{}
		for i := r.Intn(4); i > 0; i-- {
			or = append(or, g.formula(d))
		}
		return or
	case 3:
		return logic.Implies{If: g.formula(d), Then: g.formula(d)}
	case 4:
		return logic.Iff{A: g.formula(d), B: g.formula(d)}
	case 5, 6:
		if g.temporal > 0 {
			g.temporal--
			if r.Intn(2) == 0 {
				return logic.Box{F: g.formula(d)}
			}
			return logic.Diamond{F: g.formula(d)}
		}
		return logic.Not{F: g.formula(d)}
	case 7, 8:
		return logic.ForAll{Var: ev, Ref: ref, Body: g.quantified(ev, false, d)}
	case 9, 10:
		return logic.Exists{Var: ev, Ref: ref, Body: g.quantified(ev, false, d)}
	case 11:
		return logic.ExistsUnique{Var: ev, Ref: ref, Body: g.quantified(ev, false, d)}
	case 12:
		return logic.AtMostOne{Var: ev, Ref: ref, Body: g.quantified(ev, false, d)}
	case 13:
		return logic.ForAllIn{Var: ev, Refs: union, Body: g.quantified(ev, false, d)}
	case 14:
		return logic.ExistsUniqueIn{Var: ev, Refs: union, Body: g.quantified(ev, false, d)}
	case 15:
		return logic.ForAllThread{Var: th, Type: types[r.Intn(2)], Body: g.quantified(th, true, d)}
	default:
		return logic.ExistsThread{Var: th, Type: types[r.Intn(2)], Body: g.quantified(th, true, d)}
	}
}

// agree checks f on c with both judges: the verdicts must match, the
// oracle must not refuse, and a production witness must pass Verify.
func agree(t *testing.T, f logic.Formula, c *core.Computation) bool {
	t.Helper()
	want, err := oracle.Holds(f, c)
	if err != nil {
		t.Errorf("oracle refused %s on %s: %v", f, c, err)
		return false
	}
	cx := logic.Holds(f, c, logic.CheckOptions{})
	if got := cx == nil; got != want {
		t.Errorf("%s\non %s: logic.Holds %v, oracle %v", f, c, got, want)
		return false
	}
	if cx != nil {
		if err := cx.Verify(); err != nil {
			t.Errorf("%s\non %s: witness fails Verify: %v", f, c, err)
			return false
		}
	}
	return true
}

// TestRandomFormulasAgreeWithOracle: logic.Holds and the oracle agree on
// random formulas over the whole language, temporal and not.
func TestRandomFormulasAgreeWithOracle(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 600
	}
	rng := rand.New(rand.NewSource(24))
	holds := 0
	for i := 0; i < n; i++ {
		c := randComp(rng, 6)
		g := &gen{rng: rng, temporal: rng.Intn(3)}
		f := g.formula(4)
		if g.temporal > 0 && rng.Intn(2) == 0 {
			f = logic.Box{F: f}
		}
		if !agree(t, f, c) {
			t.Fatalf("case %d", i)
		}
		if ok, _ := oracle.Holds(f, c); ok {
			holds++
		}
	}
	t.Logf("%d of %d formulas hold", holds, n)
}

// TestQuantifierDomainsAgreeWithOracle: quantifiers over classes with
// three or more events and thread types with three instances, where a
// domain that loses one member changes the verdict.
func TestQuantifierDomainsAgreeWithOracle(t *testing.T) {
	b := core.NewBuilder()
	var ids []core.EventID
	for k := 1; k <= 4; k++ {
		id := b.Event("A", "X", core.NewParams(core.P("v", core.Int(int64(k)))))
		if k <= 3 {
			b.Thread(id, thread.ID("pi", k))
		}
		ids = append(ids, id)
	}
	b.Event("B", "Y", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := core.Ref("", "X")
	for i := range ids {
		// Each event and each thread instance is singled out once.
		v := core.Int(int64(i + 1))
		agree(t, logic.Exists{Var: "x", Ref: x, Body: logic.ParamConst{X: "x", P: "v", Op: logic.OpEq, V: v}}, c)
		agree(t, logic.ForAll{Var: "x", Ref: x, Body: logic.ParamConst{X: "x", P: "v", Op: logic.OpNe, V: v}}, c)
		agree(t, logic.ForAllIn{Var: "x", Refs: []core.ClassRef{x}, Body: logic.ParamConst{X: "x", P: "v", Op: logic.OpNe, V: v}}, c)
		agree(t, logic.ExistsUniqueIn{Var: "x", Refs: []core.ClassRef{x, core.Ref("", "Y")}, Body: logic.ParamConst{X: "x", P: "v", Op: logic.OpGe, V: v}}, c)
		onIt := logic.Exists{Var: "x", Ref: x, Body: logic.And{
			logic.ParamConst{X: "x", P: "v", Op: logic.OpEq, V: v}, logic.OnThread{X: "x", T: "t"}}}
		agree(t, logic.ExistsThread{Var: "t", Type: "pi", Body: onIt}, c)
		agree(t, logic.ForAllThread{Var: "t", Type: "pi", Body: logic.Not{F: onIt}}, c)
	}
	for _, f := range []logic.Formula{
		logic.ExistsUnique{Var: "x", Ref: x, Body: logic.ParamConst{X: "x", P: "v", Op: logic.OpGe, V: core.Int(3)}},
		logic.AtMostOne{Var: "x", Ref: x, Body: logic.ParamConst{X: "x", P: "v", Op: logic.OpGe, V: core.Int(3)}},
		logic.Box{F: logic.ForAll{Var: "x", Ref: x, Body: logic.Occurred{Var: "x"}}},
		logic.Box{F: logic.CountDiff{A: x, B: core.Ref("", "Y"), Min: 0, Max: 3}},
	} {
		agree(t, f, c)
	}
}

// TestBindingFormulasAgreeWithOracle: the shapes a binding stack gets
// wrong — a shadowed name, a quantifier that stops early and must unbind
// its variable, event and thread variables sharing a name — judged by
// both.
func TestBindingFormulasAgreeWithOracle(t *testing.T) {
	b := core.NewBuilder()
	a := b.Event("P", "A", core.Params{})
	b1 := b.Event("Q", "B", core.Params{})
	b2 := b.Event("Q", "B", core.Params{})
	b.Thread(a, thread.ID("pi", 1))
	b.Thread(b1, thread.ID("pi", 1))
	b.Thread(b2, thread.ID("pi", 2))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	A, B := core.Ref("", "A"), core.Ref("", "B")
	isA := logic.InClass{Var: "x", Ref: A}
	onA := logic.Exists{Var: "e", Ref: A, Body: logic.OnThread{X: "e", T: "t"}}
	for i, f := range []logic.Formula{
		logic.ForAll{Var: "x", Ref: A, Body: logic.And{logic.Exists{Var: "x", Ref: B, Body: logic.TrueF{}}, isA}},
		logic.ForAll{Var: "x", Ref: A, Body: logic.Or{logic.ForAll{Var: "x", Ref: B, Body: logic.FalseF{}}, isA}},
		logic.ForAll{Var: "x", Ref: A, Body: logic.Or{logic.ExistsUnique{Var: "x", Ref: B, Body: logic.TrueF{}}, isA}},
		logic.ForAll{Var: "x", Ref: A, Body: logic.Or{logic.AtMostOne{Var: "x", Ref: B, Body: logic.TrueF{}}, isA}},
		logic.ForAll{Var: "x", Ref: A, Body: logic.Or{logic.ForAllIn{Var: "x", Refs: []core.ClassRef{B}, Body: logic.FalseF{}}, isA}},
		logic.ForAll{Var: "x", Ref: A, Body: logic.Or{logic.ExistsUniqueIn{Var: "x", Refs: []core.ClassRef{B}, Body: logic.TrueF{}}, isA}},
		logic.Exists{Var: "x", Ref: A, Body: logic.And{logic.ForAll{Var: "y", Ref: B, Body: logic.Box{F: logic.Occurred{Var: "y"}}}, isA}},
		logic.ForAllThread{Var: "t", Type: "pi", Body: logic.Or{logic.ForAllThread{Var: "t", Type: "pi", Body: logic.FalseF{}}, logic.Exists{Var: "e", Ref: core.Ref("", ""), Body: logic.OnThread{X: "e", T: "t"}}}},
		logic.ExistsThread{Var: "t", Type: "pi", Body: logic.And{logic.ExistsThread{Var: "t", Type: "pi", Body: logic.TrueF{}}, logic.Not{F: onA}}},
		logic.ForAllThread{Var: "x", Type: "pi", Body: logic.ForAll{Var: "x", Ref: A, Body: logic.ExistsThread{Var: "x", Type: "pi", Body: logic.OnThread{X: "x", T: "x"}}}},
		logic.ForAllThread{Var: "t", Type: "pi", Body: logic.Exists{Var: "t", Ref: B, Body: logic.OnThread{X: "t", T: "t"}}},
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			agree(t, f, c)
			agree(t, logic.Box{F: f}, c)
		})
	}
}

// TestTemporalPositionsAgreeWithOracle: a □ or ◇ that stops early must
// leave the sequence position where it found it, or the immediate
// conjunct after it reads a later history. Each formula fails on every
// sequence, so the lattice engine refutes it and re-evaluates its witness
// sequence through Eval.
func TestTemporalPositionsAgreeWithOracle(t *testing.T) {
	b := core.NewBuilder()
	x := b.Event("A", "X", core.Params{})
	y := b.Event("B", "Y", core.Params{})
	b.Enable(x, y)
	b.Event("C", "Z", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	occ := logic.Occurred{Var: "x"}
	notOcc := logic.Not{F: occ}
	X := core.Ref("", "X")
	for i, f := range []logic.Formula{
		logic.Not{F: logic.Exists{Var: "x", Ref: X, Body: logic.And{logic.Diamond{F: occ}, notOcc}}},
		logic.Not{F: logic.Exists{Var: "x", Ref: X, Body: logic.And{logic.Not{F: logic.Box{F: notOcc}}, notOcc}}},
		logic.Box{F: logic.Exists{Var: "x", Ref: X, Body: logic.And{logic.Diamond{F: occ}, occ}}},
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) { agree(t, f, c) })
	}
}
