package gemlang_test

import (
	"os"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/legal"
	"gem/internal/logic"
)

// TestSourceRoundTripsFormulae: Source renders every formula shape into
// parseable syntax, and reparsing yields a formula with identical
// verdicts (checked structurally via a second Format fixpoint).
func TestSourceRoundTripsFormulae(t *testing.T) {
	formulas := []string{
		"TRUE",
		"FALSE",
		"occurred(e)",
		"new(e)",
		"potential(e)",
		"x @ EL1",
		"x : db.control.StartRead",
		"x at db.control.StartRead",
		"x in t",
		"distinct(t1, t2)",
		"a |> b",
		"a ~> b",
		"a => b",
		"a || b",
		"a = b",
		"a != b",
		"x.v = y.w",
		"x.v < 5",
		`x.s = "lit"`,
		"~(TRUE)",
		"TRUE & FALSE & TRUE",
		"TRUE | FALSE",
		"TRUE -> FALSE",
		"TRUE <-> FALSE",
		"[] occurred(e)",
		"<> occurred(e)",
		"(FORALL x: A.B) occurred(x)",
		"(EXISTS x: A.B) occurred(x)",
		"(EXISTS1 x: A.B) x |> y",
		"(ATMOST1 x: A.B) x |> y",
		"(FORALLTHREAD t: pi) (EXISTS e: A.B) e in t",
		"(EXISTSTHREAD t: pi) TRUE",
		"COUNT(buf.Dep - buf.Fet IN 0 .. 3)",
		"COUNT(buf.Dep - buf.Fet IN -1 .. *)",
		"FIFO(buf.Dep.item -> buf.Fet.item)",
		"PREREQ(a.A -> b.B -> c.C)",
		"NDPREREQ({a.A, b.B} -> c.C)",
		"FORK(a.A -> {b.B, c.C})",
		"JOIN({b.B, c.C} -> a.A)",
	}
	for _, src := range formulas {
		f1, err := gemlang.ParseFormula(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rendered := gemlang.Source(f1)
		f2, err := gemlang.ParseFormula(rendered)
		if err != nil {
			t.Fatalf("reparse of gemlang.Source(%q) = %q failed: %v", src, rendered, err)
		}
		// Fixpoint: formatting the reparsed formula is stable.
		if again := gemlang.Source(f2); again != rendered {
			t.Errorf("Source not a fixpoint for %q:\n  first:  %s\n  second: %s", src, rendered, again)
		}
	}
}

// TestFormatRoundTripsSpec: a full specification formats to source that
// reparses to an equivalent spec (Format fixpoint), and the reparsed
// spec gives the same legality verdicts.
func TestFormatRoundTripsSpec(t *testing.T) {
	src, err := os.ReadFile("../../examples/specs/readerswriters.gem")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := gemlang.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	out1 := gemlang.Format(s1)
	s2, err := gemlang.Parse(out1)
	if err != nil {
		t.Fatalf("formatted spec does not reparse: %v\n%s", err, out1)
	}
	out2 := gemlang.Format(s2)
	if out1 != out2 {
		t.Errorf("Format not a fixpoint:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("reparsed spec invalid: %v", err)
	}
	// Same structure.
	if len(s1.ElementNames()) != len(s2.ElementNames()) ||
		len(s1.GroupNames()) != len(s2.GroupNames()) ||
		len(s1.Threads()) != len(s2.Threads()) ||
		len(s1.Restrictions()) != len(s2.Restrictions()) {
		t.Fatal("round trip changed the spec's shape")
	}
}

// TestFormatPreservesVerdicts: the original and round-tripped specs agree
// on a legal and an illegal computation.
func TestFormatPreservesVerdicts(t *testing.T) {
	const specSrc = `
SPEC verdicts
ELEMENT V
  EVENTS
    Assign(newval: VALUE)
    Getval(oldval: VALUE)
  RESTRICTIONS
    "rla":
      (FORALL a: Assign, g: Getval)
        (a ~> g & ~((EXISTS a2: Assign) (a ~> a2 & a2 ~> g)))
        -> a.newval = g.oldval ;
END
`
	s1, err := gemlang.Parse(specSrc)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := gemlang.Parse(gemlang.Format(s1))
	if err != nil {
		t.Fatal(err)
	}
	build := func(stale bool) *core.Computation {
		b := core.NewBuilder()
		b.Event("V", "Assign", core.NewParams(core.P("newval", core.Int(1))))
		got := core.Int(1)
		if stale {
			got = core.Int(9)
		}
		b.Event("V", "Getval", core.NewParams(core.P("oldval", got)))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, stale := range []bool{false, true} {
		v1 := legal.Check(s1, build(stale), legal.Options{}).Legal()
		v2 := legal.Check(s2, build(stale), legal.Options{}).Legal()
		if v1 != v2 {
			t.Errorf("stale=%v: original=%v roundtrip=%v", stale, v1, v2)
		}
		if v1 == stale {
			t.Errorf("stale=%v: verdict %v wrong", stale, v1)
		}
	}
}

func TestSourceBoolConstant(t *testing.T) {
	f := logic.ParamConst{X: "x", P: "alive", Op: logic.OpEq, V: core.Bool(true)}
	src := gemlang.Source(f)
	if !strings.Contains(src, "TRUE") {
		t.Errorf("bool constant rendering = %q", src)
	}
	if _, err := gemlang.ParseFormula(src); err != nil {
		t.Errorf("bool constant does not reparse: %v", err)
	}
}

func TestSourceUnionQuantifiers(t *testing.T) {
	refs := []core.ClassRef{core.Ref("a", "A"), core.Ref("b", "B")}
	fa := logic.ForAllIn{Var: "x", Refs: refs, Body: logic.Occurred{Var: "x"}}
	if _, err := gemlang.ParseFormula(gemlang.Source(fa)); err != nil {
		t.Errorf("ForAllIn source does not reparse: %v", err)
	}
	eu := logic.ExistsUniqueIn{Var: "x", Refs: refs, Body: logic.Enables{X: "x", Y: "y"}}
	if _, err := gemlang.ParseFormula(gemlang.Source(eu)); err != nil {
		t.Errorf("ExistsUniqueIn source does not reparse: %v", err)
	}

	// A spec-level Read matches u1's Read too. The NDPREREQ below holds
	// on u1.Read |> c.Req, whose one enabler is in both classes; a
	// rendering as "exactly one in one class and none in the others"
	// fails there. Source must refuse it, so that HashFormula falls back
	// to the String form instead of giving both formulas one hash.
	over := logic.NDPrereq([]core.ClassRef{core.Ref("", "Read"), core.Ref("u1", "Read")}, core.Ref("c", "Req"))
	b := core.NewBuilder()
	read := b.Event("u1", "Read", core.Params{})
	b.Enable(read, b.Event("c", "Req", core.Params{}))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cx := logic.HoldsAtFull(over, c); cx != nil {
		t.Fatalf("NDPREREQ over overlapping classes fails on u1.Read |> c.Req: %v", cx.Error())
	}
	if src, ok := source(over); ok {
		t.Errorf("Source renders NDPREREQ over overlapping classes as %s", src)
		if g, err := gemlang.ParseFormula(src); err == nil && logic.HoldsAtFull(g, c) != nil &&
			gemlang.HashFormula(g) == gemlang.HashFormula(over) {
			t.Error("and that rendering fails on u1.Read |> c.Req under the formula's own hash")
		}
	}
}

// source returns Source(f), and false if Source refuses f.
func source(f logic.Formula) (src string, ok bool) {
	defer func() {
		if recover() != nil {
			src, ok = "", false
		}
	}()
	return gemlang.Source(f), true
}

func TestFormatElementWithoutEvents(t *testing.T) {
	s, err := gemlang.Parse("ELEMENT Bare END")
	if err != nil {
		t.Fatal(err)
	}
	out := gemlang.Format(s)
	if _, err := gemlang.Parse(out); err != nil {
		t.Errorf("bare element format does not reparse: %v\n%s", err, out)
	}
}
