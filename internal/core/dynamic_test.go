package core

import (
	"testing"
)

func TestUniverseClone(t *testing.T) {
	u := NewUniverse()
	u.AddElement("A")
	u.AddElement("B")
	u.AddElement("C")
	u.AddGroup("G", "A")
	u.AddPort("G", "A", "Start")
	cp := u.Clone()
	cp.AddMember("G", "B")
	if u.Access("B", "A") {
		t.Error("Clone must be independent of the original")
	}
	if !cp.Access("B", "A") {
		t.Error("clone should reflect its own additions")
	}
	// C stays outside G, so only the cloned port lets it reach A.
	if !cp.MayEnable("C", "A", "Start") || cp.MayEnable("C", "A", "Stop") {
		t.Error("ports must be cloned")
	}
}

func TestAddRemoveMember(t *testing.T) {
	u := NewUniverse()
	u.AddElement("A")
	u.AddElement("B")
	u.AddGroup("G", "A")
	if u.Access("B", "A") {
		t.Fatal("B must not reach inside G initially")
	}
	u.AddMember("G", "B")
	if !u.Access("B", "A") {
		t.Fatal("after joining G, B must access A")
	}
	u.RemoveMember("G", "B")
	if u.Access("B", "A") {
		t.Fatal("after leaving G, access is revoked")
	}
	// Removing a non-member or from an unknown group is a no-op.
	u.RemoveMember("G", "ghost")
	u.RemoveMember("nope", "B")
}

func TestChangeEvent(t *testing.T) {
	good := lone(t, AdminElement, AddMemberClass, NewParams(P("group", Str("G")), P("member", Str("A"))))
	g, m, add, ok := ChangeEvent(good)
	if !ok || g != "G" || m != "A" || !add {
		t.Errorf("ChangeEvent = (%q, %q, %v, %v)", g, m, add, ok)
	}
	rem := lone(t, AdminElement, RemoveMemberClass, NewParams(P("group", Str("G")), P("member", Str("A"))))
	if _, _, add, ok := ChangeEvent(rem); !ok || add {
		t.Error("remove event wrong")
	}
	if _, _, _, ok := ChangeEvent(lone(t, "other", AddMemberClass, Params{})); ok {
		t.Error("non-admin element is not a change event")
	}
	if _, _, _, ok := ChangeEvent(lone(t, AdminElement, "Other", Params{})); ok {
		t.Error("unknown class is not a change event")
	}
	if _, _, _, ok := ChangeEvent(lone(t, AdminElement, AddMemberClass,
		NewParams(P("group", Str("G"))))); ok {
		t.Error("missing member param must be rejected")
	}
}

func TestUniverseAt(t *testing.T) {
	static := NewUniverse()
	static.AddElement("inner")
	static.AddElement("joiner")
	static.AddElement(AdminElement)
	static.AddGroup("G", "inner")

	b := NewBuilder()
	before := b.Event("joiner", "Try", Params{})
	addEv := b.Event(AdminElement, AddMemberClass,
		NewParams(P("group", Str("G")), P("member", Str("joiner"))))
	after := b.Event("joiner", "Try", Params{})
	b.Enable(before, addEv)
	b.Enable(addEv, after)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	uBefore, err := UniverseAt(static, c, before)
	if err != nil {
		t.Fatal(err)
	}
	if uBefore.Access("joiner", "inner") {
		t.Error("before the change, joiner must not access inner")
	}
	uAfter, err := UniverseAt(static, c, after)
	if err != nil {
		t.Fatal(err)
	}
	if !uAfter.Access("joiner", "inner") {
		t.Error("after the change, joiner must access inner")
	}
	// The static universe is untouched.
	if static.Access("joiner", "inner") {
		t.Error("UniverseAt must not mutate the static universe")
	}
	if !HasDynamicChanges(c) {
		t.Error("HasDynamicChanges should see the admin event")
	}
}

func TestUniverseAtMalformed(t *testing.T) {
	static := NewUniverse()
	static.AddElement(AdminElement)
	static.AddElement("x")
	b := NewBuilder()
	bad := b.Event(AdminElement, AddMemberClass, Params{}) // missing params
	tgt := b.Event("x", "E", Params{})
	b.Enable(bad, tgt)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UniverseAt(static, c, tgt); err == nil {
		t.Error("malformed change event must be reported")
	}
}

func TestUniverseAtAppliesOnlyCausalPast(t *testing.T) {
	static := NewUniverse()
	static.AddElement("inner")
	static.AddElement("joiner")
	static.AddElement(AdminElement)
	static.AddGroup("G", "inner")

	b := NewBuilder()
	// Change event concurrent with the probe: must NOT apply.
	b.Event(AdminElement, AddMemberClass, NewParams(P("group", Str("G")), P("member", Str("joiner"))))
	probe := b.Event("joiner", "Try", Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u, err := UniverseAt(static, c, probe)
	if err != nil {
		t.Fatal(err)
	}
	if u.Access("joiner", "inner") {
		t.Error("a concurrent change must not be visible")
	}
}
