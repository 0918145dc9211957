package gemlang

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
)

func mustParseFormula(t *testing.T, src string) logic.Formula {
	t.Helper()
	f, err := ParseFormula(src)
	if err != nil {
		t.Fatalf("ParseFormula(%q): %v", src, err)
	}
	return f
}

func TestParseFormulaShapes(t *testing.T) {
	tests := []struct {
		src  string
		want string // type rendering via String, checked by substring
	}{
		{"TRUE", "true"},
		{"FALSE", "false"},
		{"occurred(e)", "occurred(e)"},
		{"new(e)", "new(e)"},
		{"potential(e)", "potential(e)"},
		{"~TRUE", "~(true)"},
		{"TRUE & FALSE", "(true & false)"},
		{"TRUE | FALSE", "(true | false)"},
		{"TRUE -> FALSE", "(true -> false)"},
		{"TRUE <-> FALSE", "(true <-> true)"}, // structure only; see below
		{"[] TRUE", "[](true)"},
		{"<> occurred(e)", "<>(occurred(e))"},
		{"a |> b", "a |> b"},
		{"a ~> b", "a =>el b"},
		{"a => b", "a => b"},
		{"a || b", "a || b"},
		{"a = b", "a = b"},
		{"a != b", "~(a = b)"},
		{"x @ EL1", "x @ EL1"},
		{"x at StartRead", "x at StartRead"},
		{"x in t", "x in t"},
		{"distinct(t1, t2)", "t1 != t2"},
		{"x.v = y.w", "x.v = y.w"},
		{"x.v < 5", "x.v < 5"},
		{"5 < x.v", "x.v > 5"},
		{`x.s = "lit"`, `x.s = "lit"`},
	}
	for _, tt := range tests {
		f := mustParseFormula(t, tt.src)
		if tt.src == "TRUE <-> FALSE" {
			if _, ok := f.(logic.Iff); !ok {
				t.Errorf("%q parsed as %T, want Iff", tt.src, f)
			}
			continue
		}
		if got := f.String(); !strings.Contains(got, tt.want) {
			t.Errorf("ParseFormula(%q).String() = %q, want containing %q", tt.src, got, tt.want)
		}
	}
}

func TestParseFormulaPrecedence(t *testing.T) {
	// & binds tighter than |, | tighter than ->, -> right-assoc.
	f := mustParseFormula(t, "TRUE & FALSE | TRUE -> FALSE -> TRUE")
	imp, ok := f.(logic.Implies)
	if !ok {
		t.Fatalf("top = %T, want Implies", f)
	}
	if _, ok := imp.If.(logic.Or); !ok {
		t.Errorf("antecedent = %T, want Or", imp.If)
	}
	if _, ok := imp.Then.(logic.Implies); !ok {
		t.Errorf("consequent = %T, want Implies (right assoc)", imp.Then)
	}
}

func TestParseQuantifiers(t *testing.T) {
	f := mustParseFormula(t, "(FORALL x: control.StartRead, y: control.StartWrite) x => y")
	outer, ok := f.(logic.ForAll)
	if !ok {
		t.Fatalf("top = %T", f)
	}
	if outer.Var != "x" || outer.Ref != core.Ref("control", "StartRead") {
		t.Errorf("outer binder = %+v", outer)
	}
	inner, ok := outer.Body.(logic.ForAll)
	if !ok || inner.Var != "y" {
		t.Fatalf("inner = %+v", outer.Body)
	}

	g := mustParseFormula(t, "(EXISTS1 e: Assign) e |> x")
	if _, ok := g.(logic.ExistsUnique); !ok {
		t.Errorf("EXISTS1 = %T", g)
	}
	h := mustParseFormula(t, "(ATMOST1 e: Assign) e |> x")
	if _, ok := h.(logic.AtMostOne); !ok {
		t.Errorf("ATMOST1 = %T", h)
	}
	th := mustParseFormula(t, "(FORALLTHREAD t: piRW) (EXISTS e: StartRead) e in t")
	if _, ok := th.(logic.ForAllThread); !ok {
		t.Errorf("FORALLTHREAD = %T", th)
	}
	ex := mustParseFormula(t, "(EXISTSTHREAD t: piRW) TRUE")
	if _, ok := ex.(logic.ExistsThread); !ok {
		t.Errorf("EXISTSTHREAD = %T", ex)
	}
}

func TestQuantifierScopeMaximal(t *testing.T) {
	f := mustParseFormula(t, "(EXISTS e: A) occurred(e) & new(e)")
	ex, ok := f.(logic.Exists)
	if !ok {
		t.Fatalf("top = %T, want Exists (maximal scope)", f)
	}
	if _, ok := ex.Body.(logic.And); !ok {
		t.Errorf("body = %T, want And", ex.Body)
	}
}

func TestParseAbbreviations(t *testing.T) {
	f := mustParseFormula(t, "PREREQ(u.Read -> control.ReqRead -> control.StartRead)")
	if _, ok := f.(logic.And); !ok {
		t.Errorf("PREREQ = %T", f)
	}
	g := mustParseFormula(t, "NDPREREQ({inp.Req, out.Req} -> inp.End)")
	if _, ok := g.(logic.And); !ok {
		t.Errorf("NDPREREQ = %T", g)
	}
	h := mustParseFormula(t, "FORK(p.A -> {q.B, r.C})")
	if _, ok := h.(logic.And); !ok {
		t.Errorf("FORK = %T", h)
	}
	j := mustParseFormula(t, "JOIN({q.B, r.C} -> s.D)")
	if _, ok := j.(logic.And); !ok {
		t.Errorf("JOIN = %T", j)
	}
}

// TestParsedFormulaEvaluates round-trips a non-trivial formula through the
// parser and evaluates it on a real computation.
func TestParsedFormulaEvaluates(t *testing.T) {
	b := core.NewBuilder()
	s := b.Event("Sender", "Send", core.NewParams(core.P("par1", core.Int(42))))
	r := b.Event("Receiver", "Receive", core.NewParams(core.P("par2", core.Int(42))))
	b.Enable(s, r)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := mustParseFormula(t,
		"(FORALL send: Sender.Send, receive: Receiver.Receive) send |> receive -> send.par1 = receive.par2")
	if cx := logic.Holds(f, c, logic.CheckOptions{}); cx != nil {
		t.Errorf("parsed message-passing restriction should hold: %v", cx.Error())
	}
	g := mustParseFormula(t,
		"(FORALL send: Sender.Send, receive: Receiver.Receive) send |> receive -> send.par1 != receive.par2")
	if cx := logic.Holds(g, c, logic.CheckOptions{}); cx == nil {
		t.Error("negated restriction must fail")
	}
}

func TestParseFormulaErrors(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"", "expected formula"},
		{"occurred e", `expected "("`},
		{"(FORALL x A) TRUE", `expected ":"`},
		{"a @@ b", "expected identifier"},
		{"a = ", "expected term"},
		{"x.v END 3", "expected relational"},
		{"a < b", "events support only = and !="},
		{"3 = 4", "invalid comparison"},
		{"PREREQ(a.B)", "at least two"},
		{"NDPREREQ(a.B -> c.D)", `expected "{"`},
		{"NDPREREQ({Read, u1.Read} -> c.Req)", "classes Read and u1.Read overlap"},
		{"NDPREREQ({u1.Read, a.B, u1.Read} -> c.Req)", "classes u1.Read and u1.Read overlap"},
		{"TRUE TRUE", "after formula"},
		{"distinct(t1 t2)", `expected ","`},
	}
	for _, tt := range tests {
		_, err := ParseFormula(tt.src)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("ParseFormula(%q) error = %v, want containing %q", tt.src, err, tt.want)
		}
	}
}

func TestParseFormulaTrailingSemicolonOK(t *testing.T) {
	if _, err := ParseFormula("TRUE ;"); err != nil {
		t.Errorf("trailing semicolon should be accepted: %v", err)
	}
}

func TestClassRefResolutionInElementBody(t *testing.T) {
	// Inside an element's RESTRICTIONS, unqualified Assign resolves to the
	// element itself.
	src := `
ELEMENT V
  EVENTS Assign(newval: VALUE)
  RESTRICTIONS
    (FORALL a: Assign) occurred(a) ;
END
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Element("V")
	fa, ok := d.Restrictions[0].F.(logic.ForAll)
	if !ok {
		t.Fatalf("restriction = %T", d.Restrictions[0].F)
	}
	if fa.Ref != core.Ref("V", "Assign") {
		t.Errorf("ref = %v, want V.Assign", fa.Ref)
	}
}

func TestParseCountAndFIFO(t *testing.T) {
	f := mustParseFormula(t, "COUNT(buffer.Deposit - buffer.Fetch IN 0 .. 2)")
	cd, ok := f.(logic.CountDiff)
	if !ok {
		t.Fatalf("COUNT = %T", f)
	}
	if cd.A != core.Ref("buffer", "Deposit") || cd.B != core.Ref("buffer", "Fetch") ||
		cd.Min != 0 || cd.Max != 2 || cd.NoMax {
		t.Errorf("CountDiff = %+v", cd)
	}

	g := mustParseFormula(t, "COUNT(A - B IN -1 .. *)")
	cd2, ok := g.(logic.CountDiff)
	if !ok || !cd2.NoMax || cd2.Min != -1 {
		t.Errorf("unbounded COUNT = %+v (%T)", g, g)
	}

	h := mustParseFormula(t, "FIFO(buffer.Deposit.item -> buffer.Fetch.item)")
	fv, ok := h.(logic.FIFOValues)
	if !ok {
		t.Fatalf("FIFO = %T", h)
	}
	if fv.A != core.Ref("buffer", "Deposit") || fv.PA != "item" ||
		fv.B != core.Ref("buffer", "Fetch") || fv.PB != "item" {
		t.Errorf("FIFOValues = %+v", fv)
	}

	// Boxed COUNT is an invariant and must survive parsing inside [] too.
	j := mustParseFormula(t, "[] COUNT(buffer.Deposit - buffer.Fetch IN 0 .. 1)")
	if _, ok := j.(logic.Box); !ok {
		t.Errorf("[] COUNT = %T", j)
	}
}

func TestParseCountAndFIFOErrors(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"COUNT(A - B IN x .. 2)", "expected integer"},
		{"COUNT(A B IN 0 .. 2)", `expected "-"`},
		{"COUNT(A - B 0 .. 2)", `expected "IN"`},
		{"COUNT(A - B IN 0 2)", `expected ".."`},
		{"FIFO(item -> B.item)", "expected Class.param"},
		{"FIFO(A.item B.item)", `expected "->"`},
	}
	for _, tt := range tests {
		_, err := ParseFormula(tt.src)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("ParseFormula(%q) error = %v, want containing %q", tt.src, err, tt.want)
		}
	}
}

func TestCountFIFOSemanticEvaluation(t *testing.T) {
	// Two deposits, one fetch, capacity 1: COUNT(0..1) violated at the
	// history with both deposits; FIFO holds.
	b := core.NewBuilder()
	b.Event("buffer", "Deposit", core.NewParams(core.P("item", core.Int(11))))
	b.Event("buffer", "Fetch", core.NewParams(core.P("item", core.Int(11))))
	b.Event("buffer", "Deposit", core.NewParams(core.P("item", core.Int(12))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	capOK := mustParseFormula(t, "[] COUNT(buffer.Deposit - buffer.Fetch IN 0 .. 1)")
	if cx := logic.Holds(capOK, c, logic.CheckOptions{}); cx != nil {
		t.Errorf("alternating D F D respects capacity 1: %v", cx.Error())
	}
	fifo := mustParseFormula(t, "FIFO(buffer.Deposit.item -> buffer.Fetch.item)")
	if cx := logic.Holds(fifo, c, logic.CheckOptions{}); cx != nil {
		t.Errorf("FIFO should hold: %v", cx.Error())
	}
}
