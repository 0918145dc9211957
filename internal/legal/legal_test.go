package legal

import (
	"slices"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/oracle"
	"gem/internal/spec"
	"gem/internal/thread"
)

// bufferSpec declares a tiny producer/consumer specification: a Variable
// element "slot" inside a group "buffer" with port Assign, plus a consumer
// element outside.
func bufferSpec(t *testing.T) *spec.Spec {
	t.Helper()
	s := spec.New("buffer-spec")
	// The paper's Variable element (Section 8.2), declared literally.
	s.AddElement(&spec.ElementDecl{
		Name:     "slot",
		TypeName: "Variable",
		Events: []spec.EventClassDecl{
			{Name: "Assign", Params: []spec.ParamDecl{{Name: "newval", Type: "VALUE"}}},
			{Name: "Getval", Params: []spec.ParamDecl{{Name: "oldval", Type: "VALUE"}}},
		},
		Restrictions: []spec.Restriction{{Name: "slot.reads-last-assign", F: spec.ReadsLastAssign("slot")}},
	})
	s.AddElement(&spec.ElementDecl{
		Name:   "producer",
		Events: []spec.EventClassDecl{{Name: "Produce", Params: []spec.ParamDecl{{Name: "v", Type: "INTEGER"}}}},
	})
	s.AddElement(&spec.ElementDecl{
		Name:   "consumer",
		Events: []spec.EventClassDecl{{Name: "Consume", Params: []spec.ParamDecl{{Name: "v", Type: "INTEGER"}}}},
	})
	s.AddGroup(&spec.GroupDecl{Name: "buffer", Members: []string{"slot"}})
	s.AddGroup(&spec.GroupDecl{
		Name:    "world",
		Members: []string{"buffer", "producer", "consumer"},
	})
	// Producers may only reach the slot through the Assign port.
	if g, ok := s.Group("buffer"); ok {
		g.Ports = []core.Port{{Element: "slot", Class: "Assign"}, {Element: "slot", Class: "Getval"}}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func legalComputation(t *testing.T) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	p := b.Event("producer", "Produce", core.NewParams(core.P("v", core.Int(7))))
	a := b.Event("slot", "Assign", core.NewParams(core.P("newval", core.Int(7))))
	g := b.Event("slot", "Getval", core.NewParams(core.P("oldval", core.Int(7))))
	cons := b.Event("consumer", "Consume", core.NewParams(core.P("v", core.Int(7))))
	b.Enable(p, a)
	b.Enable(a, g)
	b.Enable(g, cons)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLegalComputationPasses(t *testing.T) {
	s := bufferSpec(t)
	c := legalComputation(t)
	res := Check(s, c, Options{})
	if !res.Legal() {
		t.Fatalf("expected legal, got: %v", res.Error())
	}
	if res.Error() != nil {
		t.Error("Error should be nil when legal")
	}
}

func TestUndeclaredElement(t *testing.T) {
	s := bufferSpec(t)
	b := core.NewBuilder()
	b.Event("ghost", "X", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{})
	if res.Legal() || res.Violations[0].Kind != UndeclaredElement {
		t.Errorf("want undeclared-element violation, got %v", res.Violations)
	}
}

func TestUndeclaredClass(t *testing.T) {
	s := bufferSpec(t)
	b := core.NewBuilder()
	b.Event("slot", "Mystery", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{})
	if res.Legal() || res.Violations[0].Kind != UndeclaredClass {
		t.Errorf("want undeclared-class violation, got %v", res.Violations)
	}
}

func TestUndeclaredParam(t *testing.T) {
	s := bufferSpec(t)
	b := core.NewBuilder()
	b.Event("slot", "Assign", core.NewParams(core.P("newval", core.Int(1)), core.P("sneaky", core.Int(2))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{SkipRestrictions: true})
	if res.Legal() || res.Violations[0].Kind != UndeclaredParam {
		t.Errorf("want undeclared-param violation, got %v", res.Violations)
	}
}

// TestUndeclaredParamsInNameOrder pins the violations of an event that
// carries several undeclared parameters: one per parameter, in name
// order, on every check.
func TestUndeclaredParamsInNameOrder(t *testing.T) {
	s := bufferSpec(t)
	b := core.NewBuilder()
	b.Event("slot", "Assign", core.NewParams(
		core.P("zeta", core.Int(3)),
		core.P("newval", core.Int(1)),
		core.P("alpha", core.Int(2)),
		core.P("mu", core.Int(4)),
	))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"event slot.Assign^0 carries undeclared parameter alpha",
		"event slot.Assign^0 carries undeclared parameter mu",
		"event slot.Assign^0 carries undeclared parameter zeta",
	}
	for i := 0; i < 20; i++ {
		var got []string
		for _, v := range Check(s, c, Options{SkipRestrictions: true}).Violations {
			got = append(got, v.Message)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("check %d: violations %q, want %q", i, got, want)
		}
	}
}

func TestIllegalEnableThroughGroupWall(t *testing.T) {
	s := bufferSpec(t)
	// Remove the ports: now producer cannot reach the slot at all.
	if g, ok := s.Group("buffer"); ok {
		g.Ports = nil
	}
	c := legalComputation(t)
	res := Check(s, c, Options{SkipRestrictions: true})
	if res.Legal() {
		t.Fatal("enable through a portless group wall must be illegal")
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == IllegalEnable && strings.Contains(v.Message, "producer") {
			found = true
		}
	}
	if !found {
		t.Errorf("want illegal-enable from producer, got %v", res.Violations)
	}
}

func TestRestrictionViolationReported(t *testing.T) {
	s := bufferSpec(t)
	// Stale read: Getval returns 9 after Assign(7).
	b := core.NewBuilder()
	a := b.Event("slot", "Assign", core.NewParams(core.P("newval", core.Int(7))))
	g := b.Event("slot", "Getval", core.NewParams(core.P("oldval", core.Int(9))))
	b.Enable(a, g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{})
	if res.Legal() {
		t.Fatal("stale read must be illegal")
	}
	v := res.Violations[0]
	if v.Kind != RestrictionViolation || v.Owner != "slot" || v.Cx == nil {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.String(), "reads-last-assign") {
		t.Errorf("violation string = %s", v.String())
	}
}

// TestRestrictionViolationWitnessVerifies: the attached counterexample
// independently falsifies the restriction formula, and the oracle judges
// every restriction as the check does.
func TestRestrictionViolationWitnessVerifies(t *testing.T) {
	s := bufferSpec(t)
	b := core.NewBuilder()
	a := b.Event("slot", "Assign", core.NewParams(core.P("newval", core.Int(7))))
	g := b.Event("slot", "Getval", core.NewParams(core.P("oldval", core.Int(9))))
	b.Enable(a, g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{})
	if res.Legal() {
		t.Fatal("the check misses the stale read")
	}
	violated := map[string]bool{}
	for _, v := range res.Violations {
		if v.Kind != RestrictionViolation {
			continue
		}
		violated[v.Restriction] = true
		if err := v.Cx.Verify(); err != nil {
			t.Errorf("bogus witness for %s: %v", v.Restriction, err)
		}
	}
	for _, r := range s.Restrictions() {
		holds, err := oracle.Holds(r.F, c)
		if err != nil {
			t.Fatal(err)
		}
		if holds == violated[r.Name] {
			t.Errorf("restriction %s: check violated=%v, oracle holds=%v", r.Name, violated[r.Name], holds)
		}
	}
}

func TestSkipRestrictions(t *testing.T) {
	s := bufferSpec(t)
	b := core.NewBuilder()
	a := b.Event("slot", "Assign", core.NewParams(core.P("newval", core.Int(7))))
	g := b.Event("slot", "Getval", core.NewParams(core.P("oldval", core.Int(9))))
	b.Enable(a, g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{SkipRestrictions: true})
	if !res.Legal() {
		t.Errorf("structural check should pass: %v", res.Error())
	}
}

func TestThreadViolationDetected(t *testing.T) {
	s := bufferSpec(t)
	s.AddThread(thread.Type{Name: "pi", Path: []core.ClassRef{
		core.Ref("producer", "Produce"), core.Ref("slot", "Assign"),
	}})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	c := legalComputation(t)
	// Not labelled at all -> thread violation.
	res := Check(s, c, Options{SkipRestrictions: true})
	if res.Legal() || res.Violations[0].Kind != ThreadViolation {
		t.Errorf("want thread violation, got %v", res.Violations)
	}
	// After labelling, the check passes.
	c2 := legalComputation(t)
	thread.Apply(c2, s.Threads()...)
	res2 := Check(s, c2, Options{SkipRestrictions: true})
	if !res2.Legal() {
		t.Errorf("labelled computation should pass: %v", res2.Error())
	}
}

func TestViolationKindStrings(t *testing.T) {
	kinds := []ViolationKind{
		UndeclaredElement, UndeclaredClass, UndeclaredParam,
		IllegalEnable, ThreadViolation, RestrictionViolation, ViolationKind(99),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if ViolationKind(99).String() != "unknown" {
		t.Error("unknown kind should render as unknown")
	}
}

func TestResultErrorMessage(t *testing.T) {
	res := Result{Violations: []Violation{
		{Kind: IllegalEnable, Message: "m1"},
		{Kind: UndeclaredClass, Message: "m2"},
	}}
	err := res.Error()
	if err == nil || !strings.Contains(err.Error(), "2 violation") {
		t.Errorf("Error = %v", err)
	}
}
