package legal

import (
	"testing"

	"gem/internal/core"
	"gem/internal/spec"
)

// dynSpec declares a protected group with a joiner element outside it,
// plus the dynamic admin element.
func dynSpec(t *testing.T) *spec.Spec {
	t.Helper()
	s := spec.New("dynamic")
	s.AddElement(&spec.ElementDecl{Name: "inner", Events: []spec.EventClassDecl{{Name: "Use"}}})
	s.AddElement(&spec.ElementDecl{Name: "joiner", Events: []spec.EventClassDecl{{Name: "Act"}}})
	params := []spec.ParamDecl{{Name: "group", Type: "NAME"}, {Name: "member", Type: "NAME"}}
	s.AddElement(&spec.ElementDecl{
		Name: core.AdminElement,
		Events: []spec.EventClassDecl{
			{Name: core.AddMemberClass, Params: params},
			{Name: core.RemoveMemberClass, Params: params},
		},
	})
	s.AddGroup(&spec.GroupDecl{Name: "G", Members: []string{"inner"}})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func addMember(b *core.Builder, group, member string) core.EventID {
	return b.Event(core.AdminElement, core.AddMemberClass,
		core.NewParams(core.P("group", core.Str(group)), core.P("member", core.Str(member))))
}

func removeMember(b *core.Builder, group, member string) core.EventID {
	return b.Event(core.AdminElement, core.RemoveMemberClass,
		core.NewParams(core.P("group", core.Str(group)), core.P("member", core.Str(member))))
}

// TestDynamicJoinEnablesAccess: the joiner may enable events inside the
// group only after (in its causal past) it has been added to the group.
func TestDynamicJoinEnablesAccess(t *testing.T) {
	s := dynSpec(t)

	// Legal: join first, then enable.
	b := core.NewBuilder()
	join := addMember(b, "G", "joiner")
	act := b.Event("joiner", "Act", core.Params{})
	use := b.Event("inner", "Use", core.Params{})
	b.Enable(join, act)
	b.Enable(act, use)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res := Check(s, c, Options{}); !res.Legal() {
		t.Fatalf("post-join access must be legal: %v", res.Error())
	}

	// Illegal: enable before joining.
	b2 := core.NewBuilder()
	act2 := b2.Event("joiner", "Act", core.Params{})
	use2 := b2.Event("inner", "Use", core.Params{})
	b2.Enable(act2, use2)
	join2 := addMember(b2, "G", "joiner")
	b2.Enable(use2, join2) // join strictly after the illegal enable
	c2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c2, Options{})
	if res.Legal() {
		t.Fatal("pre-join access must be illegal")
	}
	if res.Violations[0].Kind != IllegalEnable {
		t.Errorf("violation = %v", res.Violations[0])
	}
}

// TestDynamicLeaveRevokesAccess: after being removed, the joiner loses
// access again.
func TestDynamicLeaveRevokesAccess(t *testing.T) {
	s := dynSpec(t)
	b := core.NewBuilder()
	join := addMember(b, "G", "joiner")
	leave := removeMember(b, "G", "joiner")
	act := b.Event("joiner", "Act", core.Params{})
	use := b.Event("inner", "Use", core.Params{})
	b.Enable(join, leave)
	b.Enable(leave, act)
	b.Enable(act, use)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(s, c, Options{})
	if res.Legal() {
		t.Fatal("access after removal must be illegal")
	}
}

// TestDynamicConcurrentChangeInvisible: a group change concurrent with
// the enabling event does not authorize it.
func TestDynamicConcurrentChangeInvisible(t *testing.T) {
	s := dynSpec(t)
	b := core.NewBuilder()
	addMember(b, "G", "joiner") // concurrent with the action below
	act := b.Event("joiner", "Act", core.Params{})
	use := b.Event("inner", "Use", core.Params{})
	b.Enable(act, use)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res := Check(s, c, Options{}); res.Legal() {
		t.Fatal("a concurrent join must not authorize the enable")
	}
}

// TestStaticComputationsUnaffected: computations without admin events use
// the static structure (fast path).
func TestStaticComputationsUnaffected(t *testing.T) {
	s := dynSpec(t)
	b := core.NewBuilder()
	b.Event("inner", "Use", core.Params{})
	b.Event("joiner", "Act", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res := Check(s, c, Options{}); !res.Legal() {
		t.Fatalf("static computation must be legal: %v", res.Error())
	}
}
