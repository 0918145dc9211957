package spec

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/thread"
)

// variableDecl declares the paper's Variable element (Section 8.2) under
// the given name: Assign/Getval and the reads-last-assign restriction.
func variableDecl(name string) *ElementDecl {
	return &ElementDecl{
		Name:     name,
		TypeName: "Variable",
		Events: []EventClassDecl{
			{Name: "Assign", Params: []ParamDecl{{Name: "newval", Type: "VALUE"}}},
			{Name: "Getval", Params: []ParamDecl{{Name: "oldval", Type: "VALUE"}}},
		},
		Restrictions: []Restriction{{Name: name + ".reads-last-assign", F: ReadsLastAssign(name)}},
	}
}

func sampleSpec(t *testing.T) *Spec {
	t.Helper()
	s := New("sample")
	s.AddElement(variableDecl("Var"))
	s.AddElement(&ElementDecl{
		Name: "control",
		Events: []EventClassDecl{
			{Name: "ReqRead"},
			{Name: "StartRead"},
		},
	})
	s.AddGroup(&GroupDecl{Name: "db", Members: []string{"Var", "control"}})
	s.AddRestriction("global-true", logic.TrueF{})
	s.AddThread(thread.Type{Name: "pi", Path: []core.ClassRef{
		core.Ref("control", "ReqRead"), core.Ref("control", "StartRead"),
	}})
	return s
}

func TestSpecAccessors(t *testing.T) {
	s := sampleSpec(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, ok := s.Element("Var"); !ok {
		t.Error("Var should be declared")
	}
	if _, ok := s.Element("nope"); ok {
		t.Error("nope should not be declared")
	}
	if _, ok := s.Group("db"); !ok {
		t.Error("db group should be declared")
	}
	if got := s.ElementNames(); len(got) != 2 || got[0] != "Var" {
		t.Errorf("ElementNames = %v", got)
	}
	if got := s.GroupNames(); len(got) != 1 || got[0] != "db" {
		t.Errorf("GroupNames = %v", got)
	}
	if got := s.Threads(); len(got) != 1 || got[0].Name != "pi" {
		t.Errorf("Threads = %v", got)
	}
	d, _ := s.Element("Var")
	if _, ok := d.EventDecl("Assign"); !ok {
		t.Error("Assign should be declared at Var")
	}
	if _, ok := d.EventDecl("Nope"); ok {
		t.Error("Nope should not be declared")
	}
	ec, _ := d.EventDecl("Assign")
	if !ec.HasParam("newval") || ec.HasParam("zz") {
		t.Error("HasParam wrong")
	}
}

func TestSpecRestrictionsCollection(t *testing.T) {
	s := sampleSpec(t)
	rs := s.Restrictions()
	// global-true + Var.reads-last-assign.
	if len(rs) != 2 {
		t.Fatalf("Restrictions = %d entries, want 2", len(rs))
	}
	owners := map[string]bool{}
	for _, r := range rs {
		owners[r.Owner] = true
	}
	if !owners["sample"] || !owners["Var"] {
		t.Errorf("owners = %v", owners)
	}
}

func TestSpecUniverse(t *testing.T) {
	s := sampleSpec(t)
	u, err := s.Universe()
	if err != nil {
		t.Fatal(err)
	}
	if !u.Contained("Var", "db") || !u.Contained("control", "db") {
		t.Error("universe missing declarations")
	}
	if !u.Access("Var", "control") {
		t.Error("group siblings must access each other")
	}
}

func TestSpecValidateErrors(t *testing.T) {
	t.Run("duplicate event class", func(t *testing.T) {
		s := New("bad")
		s.AddElement(&ElementDecl{Name: "E", Events: []EventClassDecl{{Name: "A"}, {Name: "A"}}})
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("want duplicate-class error, got %v", err)
		}
	})
	t.Run("unknown group member", func(t *testing.T) {
		s := New("bad")
		s.AddGroup(&GroupDecl{Name: "G", Members: []string{"ghost"}})
		if err := s.Validate(); err == nil {
			t.Error("want unknown-member error")
		}
	})
	t.Run("thread references unknown element", func(t *testing.T) {
		s := New("bad")
		s.AddThread(thread.Type{Name: "pi", Path: []core.ClassRef{core.Ref("ghost", "X")}})
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown element") {
			t.Errorf("want unknown-element error, got %v", err)
		}
	})
	t.Run("thread references unknown class", func(t *testing.T) {
		s := New("bad")
		s.AddElement(&ElementDecl{Name: "E", Events: []EventClassDecl{{Name: "A"}}})
		s.AddThread(thread.Type{Name: "pi", Path: []core.ClassRef{core.Ref("E", "Z")}})
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown class") {
			t.Errorf("want unknown-class error, got %v", err)
		}
	})
	t.Run("unqualified thread refs allowed", func(t *testing.T) {
		s := New("ok")
		s.AddThread(thread.Type{Name: "pi", Path: []core.ClassRef{core.Ref("", "Read")}})
		if err := s.Validate(); err != nil {
			t.Errorf("unqualified refs should validate: %v", err)
		}
	})
}

// TestReadsLastAssign checks the Variable restriction against the element
// it names: a read of the last assigned value holds, a stale read fails.
func TestReadsLastAssign(t *testing.T) {
	read := func(element string, got int64) *core.Computation {
		b := core.NewBuilder()
		b.Event(element, "Assign", core.NewParams(core.P("newval", core.Int(5))))
		b.Event(element, "Getval", core.NewParams(core.P("oldval", core.Int(got))))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	f := ReadsLastAssign("Counter")
	if cx := logic.Holds(f, read("Counter", 5), logic.CheckOptions{}); cx != nil {
		t.Errorf("faithful read refuted: %v", cx)
	}
	if cx := logic.Holds(f, read("Counter", 9), logic.CheckOptions{}); cx == nil {
		t.Error("stale read at the named element must be refuted")
	}
	if cx := logic.Holds(f, read("Other", 9), logic.CheckOptions{}); cx != nil {
		t.Errorf("a stale read at another element is none of its business: %v", cx)
	}
}
