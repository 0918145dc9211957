package gemlang_test

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/legal"
)

// paperVariableSrc is the paper's Section 6/8.2 Variable description in
// gemlang concrete syntax.
const paperVariableSrc = `
SPEC variables

ELEMENT TYPE Variable
  EVENTS
    Assign(newval: VALUE)
    Getval(oldval: VALUE)
  RESTRICTIONS
    "reads-last-assign":
      (FORALL assign: Assign, getval: Getval)
        (assign ~> getval &
         ~((EXISTS assign2: Assign) (assign ~> assign2 & assign2 ~> getval)))
        -> assign.newval = getval.oldval ;
END

ELEMENT TYPE TypedVariable(t: TYPE) : Variable ADD
END

ELEMENT Var : TypedVariable(INTEGER)
ELEMENT Plain : Variable
`

func TestParsePaperVariable(t *testing.T) {
	s, err := gemlang.Parse(paperVariableSrc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "variables" {
		t.Errorf("spec name = %q", s.Name)
	}
	v, ok := s.Element("Var")
	if !ok {
		t.Fatal("Var not declared")
	}
	if v.TypeName != "TypedVariable" {
		t.Errorf("Var.TypeName = %q", v.TypeName)
	}
	if len(v.Events) != 2 || v.Events[0].Name != "Assign" {
		t.Errorf("Var events = %+v", v.Events)
	}
	if len(v.Restrictions) != 1 || v.Restrictions[0].Name != "reads-last-assign" {
		t.Errorf("Var restrictions = %+v", v.Restrictions)
	}
	if _, ok := s.Element("Plain"); !ok {
		t.Error("Plain not declared")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestParsedVariableRestrictionSemantics checks that the parsed
// restriction actually enforces reads-last-assign on computations.
func TestParsedVariableRestrictionSemantics(t *testing.T) {
	s, err := gemlang.Parse(paperVariableSrc)
	if err != nil {
		t.Fatal(err)
	}
	build := func(stale bool) *core.Computation {
		b := core.NewBuilder()
		b.Event("Var", "Assign", core.NewParams(core.P("newval", core.Int(1))))
		got := core.Int(1)
		if stale {
			got = core.Int(99)
		}
		b.Event("Var", "Getval", core.NewParams(core.P("oldval", got)))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if res := legal.Check(s, build(false), legal.Options{}); !res.Legal() {
		t.Errorf("faithful read should be legal: %v", res.Error())
	}
	if res := legal.Check(s, build(true), legal.Options{}); res.Legal() {
		t.Error("stale read must be illegal under the parsed spec")
	}
}

// TestParsePaperGroupExample parses the Section 4 group structure and
// checks the resulting access relation (E1 through the parser).
func TestParsePaperGroupExample(t *testing.T) {
	src := `
ELEMENT EL1 EVENTS E END
ELEMENT EL2 EVENTS E END
ELEMENT EL3 EVENTS E END
ELEMENT EL4 EVENTS E END
ELEMENT EL5 EVENTS E END
ELEMENT EL6 EVENTS E END
GROUP G1 MEMBERS(EL2, EL3) END
GROUP G2 MEMBERS(EL4, EL5) END
GROUP G3 MEMBERS(EL3, EL4) END
GROUP G4 MEMBERS(EL1) END
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Universe()
	if err != nil {
		t.Fatal(err)
	}
	if !u.Access("EL3", "EL4") || u.Access("EL2", "EL4") {
		t.Error("parsed group structure gives wrong access relation")
	}
	if !u.Access("EL1", "EL6") || u.Access("EL6", "EL1") {
		t.Error("global element access wrong")
	}
}

func TestParseGroupWithPortsAndRestrictions(t *testing.T) {
	src := `
ELEMENT Datum EVENTS Write(v: VALUE) END
ELEMENT Oper EVENTS Start Finish END
GROUP Abstraction MEMBERS(Datum, Oper) PORTS(Oper.Start)
  RESTRICTIONS
    PREREQ(Oper.Start -> Oper.Finish) ;
END
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := s.Group("Abstraction")
	if !ok {
		t.Fatal("group missing")
	}
	if len(g.Ports) != 1 || g.Ports[0].Element != "Oper" || g.Ports[0].Class != "Start" {
		t.Errorf("ports = %+v", g.Ports)
	}
	if len(g.Restrictions) != 1 {
		t.Errorf("restrictions = %d", len(g.Restrictions))
	}
}

func TestParseGroupType(t *testing.T) {
	src := `
ELEMENT m1.lock EVENTS Req END
ELEMENT m1.cond EVENTS Wait END
GROUP TYPE Monitor
  MEMBERS(lock, cond)
  PORTS(lock.Req)
END
GROUP m1 : Monitor
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := s.Group("m1")
	if !ok {
		t.Fatal("m1 missing")
	}
	if len(g.Members) != 2 || g.Members[0] != "m1.lock" || g.Members[1] != "m1.cond" {
		t.Errorf("members = %v", g.Members)
	}
	if g.TypeName != "Monitor" {
		t.Errorf("TypeName = %q", g.TypeName)
	}
	if len(g.Ports) != 1 || g.Ports[0].Element != "m1.lock" {
		t.Errorf("ports = %+v", g.Ports)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseThreadDecl(t *testing.T) {
	src := `
ELEMENT u EVENTS Read FinishRead END
ELEMENT control EVENTS ReqRead StartRead END
THREAD piRW = (u.Read :: control.ReqRead :: control.StartRead :: u.FinishRead)
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ths := s.Threads()
	if len(ths) != 1 || ths[0].Name != "piRW" || len(ths[0].Path) != 4 {
		t.Fatalf("threads = %+v", ths)
	}
	if ths[0].Path[1] != core.Ref("control", "ReqRead") {
		t.Errorf("path[1] = %v", ths[0].Path[1])
	}
}

func TestParseTopLevelRestriction(t *testing.T) {
	src := `
ELEMENT X EVENTS A B END
RESTRICTION "a-before-b": (FORALL a: X.A, b: X.B) a => b ;
RESTRICTION TRUE ;
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.Restrictions()
	if len(rs) != 2 {
		t.Fatalf("restrictions = %d", len(rs))
	}
	if rs[0].Name != "a-before-b" {
		t.Errorf("restriction name = %q", rs[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"unknown top-level", "WHAT", "unexpected"},
		{"missing END", "ELEMENT X EVENTS A", `expected "END"`},
		{"unknown element type", "ELEMENT X : Ghost", "unknown element type"},
		{"unknown group type", "GROUP G : Ghost", "unknown group type"},
		{"arity mismatch", "ELEMENT TYPE T(a) END\nELEMENT X : T", "expects 1 argument"},
		{"missing semicolon", "ELEMENT X EVENTS A RESTRICTIONS TRUE END", `expected ";"`},
		{"bad port", "ELEMENT E EVENTS A END\nGROUP G MEMBERS(E) PORTS(E) END", "element.Class"},
		{"missing type END", "ELEMENT TYPE T EVENTS A", "missing END"},
		{"group needs members", "GROUP G PORTS(x.Y) END", `expected "MEMBERS"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := gemlang.Parse(tt.src)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Parse error = %v, want containing %q", err, tt.want)
			}
		})
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	_, err := gemlang.Parse("ELEMENT X EVENTS A\nRESTRICTIONS")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "gemlang:") {
		t.Errorf("error should carry a position: %v", err)
	}
}

func TestElementTypeTextSubstitution(t *testing.T) {
	// The formal parameter t appears as a param type and must be replaced
	// by INTEGER; the event name must not be rewritten.
	src := `
ELEMENT TYPE Cell(t)
  EVENTS Put(v: t)
END
ELEMENT c1 : Cell(INTEGER)
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Element("c1")
	if d.Events[0].Params[0].Type != "INTEGER" {
		t.Errorf("substituted param type = %q", d.Events[0].Params[0].Type)
	}
}

func TestGroupTypeMemberSelectorsNotSubstituted(t *testing.T) {
	// In "lock.Req", only the first component is a member reference; a
	// selector after a dot must stay untouched even if it collides with a
	// member name.
	src := `
ELEMENT g.lock EVENTS lock END
GROUP TYPE T MEMBERS(lock) PORTS(lock.lock) END
GROUP g : T
`
	s, err := gemlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := s.Group("g")
	if g.Ports[0].Element != "g.lock" || g.Ports[0].Class != "lock" {
		t.Errorf("ports = %+v", g.Ports)
	}
}
