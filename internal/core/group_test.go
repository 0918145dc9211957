package core

import (
	"strings"
	"testing"
)

// paperUniverse builds the Section 4 example:
//
//	ELEMENTS EL1..EL6
//	G1 = GROUP(EL2, EL3)
//	G2 = GROUP(EL4, EL5)
//	G3 = GROUP(EL3, EL4)
//	G4 = GROUP(EL1)
//
// EL6 belongs to no group (hence is global to everything).
func paperUniverse(t *testing.T) *Universe {
	t.Helper()
	u := NewUniverse()
	for _, e := range []string{"EL1", "EL2", "EL3", "EL4", "EL5", "EL6"} {
		u.AddElement(e)
	}
	u.AddGroup("G1", "EL2", "EL3")
	u.AddGroup("G2", "EL4", "EL5")
	u.AddGroup("G3", "EL3", "EL4")
	u.AddGroup("G4", "EL1")
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	return u
}

// TestPaperAccessTable reproduces the paper's Section 4 allowed-enable
// table exactly (experiment E1).
func TestPaperAccessTable(t *testing.T) {
	u := paperUniverse(t)
	want := map[string][]string{
		"EL1": {"EL1", "EL6"},
		"EL2": {"EL2", "EL3", "EL6"},
		"EL3": {"EL2", "EL3", "EL4", "EL6"},
		"EL4": {"EL3", "EL4", "EL5", "EL6"},
		"EL5": {"EL4", "EL5", "EL6"},
		"EL6": {"EL6"},
	}
	elems := []string{"EL1", "EL2", "EL3", "EL4", "EL5", "EL6"}
	for _, src := range elems {
		allowed := make(map[string]bool)
		for _, dst := range want[src] {
			allowed[dst] = true
		}
		for _, dst := range elems {
			got := u.Access(src, dst)
			if got != allowed[dst] {
				t.Errorf("access(%s, %s) = %v, want %v", src, dst, got, allowed[dst])
			}
			// With no ports declared, MayEnable coincides with Access.
			if u.MayEnable(src, dst, "E") != got {
				t.Errorf("MayEnable(%s, %s) disagrees with Access", src, dst)
			}
		}
	}
}

func TestAccessGroupTargets(t *testing.T) {
	u := paperUniverse(t)
	// EL2 is contained in G1, so it can access G1 itself (G1 is a member of
	// the root group... G1 has no parent, so it is global).
	if !u.Access("EL2", "G1") {
		t.Error("EL2 should access its own (global) group G1")
	}
	// G1 has no parent, so it is global to everything.
	if !u.Access("EL5", "G1") {
		t.Error("top-level groups are global")
	}
}

func TestPortsOpenAccessHoles(t *testing.T) {
	// The paper's data-abstraction example: Abstraction =
	// GROUP(Datum, Oper) with PORTS(Oper.Start). Outside events may enable
	// only Oper.Start, not Datum events or other Oper classes.
	u := NewUniverse()
	for _, e := range []string{"Datum", "Oper", "Client"} {
		u.AddElement(e)
	}
	u.AddGroup("Abstraction", "Datum", "Oper")
	u.AddPort("Abstraction", "Oper", "Start")
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}

	if u.Access("Client", "Datum") {
		t.Error("Client must not access Datum inside the group")
	}
	if u.MayEnable("Client", "Datum", "Write") {
		t.Error("Client must not enable Datum events")
	}
	if !u.MayEnable("Client", "Oper", "Start") {
		t.Error("Client must be able to enable the port class Oper.Start")
	}
	if u.MayEnable("Client", "Oper", "Finish") {
		t.Error("non-port classes at the port element stay protected")
	}
	// Members inside the group retain full mutual access.
	if !u.MayEnable("Datum", "Oper", "Finish") {
		t.Error("group-internal access must be unrestricted")
	}
}

func TestPortWildcardClass(t *testing.T) {
	u := NewUniverse()
	u.AddElement("In")
	u.AddElement("Out")
	u.AddGroup("Box", "In")
	u.AddPort("Box", "In", "") // any class at In is a port
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if !u.MayEnable("Out", "In", "Whatever") {
		t.Error("wildcard port should admit any class")
	}
}

func TestNestedGroups(t *testing.T) {
	// Outer contains Inner contains EL; Sibling is outside Outer.
	u := NewUniverse()
	for _, e := range []string{"EL", "Peer", "Sibling"} {
		u.AddElement(e)
	}
	u.AddGroup("Inner", "EL")
	u.AddGroup("Outer", "Inner", "Peer")
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}

	if !u.Contained("EL", "Inner") || !u.Contained("EL", "Outer") {
		t.Error("containment must be transitive")
	}
	if u.Contained("Peer", "Inner") {
		t.Error("Peer is not in Inner")
	}
	if !u.Contained("EL", RootGroup) {
		t.Error("everything is contained in the root group")
	}
	// EL can access Peer: Peer ∈ Outer and EL is contained in Outer.
	if !u.Access("EL", "Peer") {
		t.Error("inner element should access outer-group siblings")
	}
	// Peer cannot access EL: EL ∈ Inner only, and Peer is not in Inner.
	if u.Access("Peer", "EL") {
		t.Error("outer element must not reach inside a nested group")
	}
	// Sibling (global, no group) cannot access EL, but EL accesses Sibling.
	if u.Access("Sibling", "EL") {
		t.Error("global element must not reach inside groups")
	}
	if !u.Access("EL", "Sibling") {
		t.Error("ungrouped elements are global, accessible to all")
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("unknown member", func(t *testing.T) {
		u := NewUniverse()
		u.AddGroup("G", "Ghost")
		if err := u.Validate(); err == nil || !strings.Contains(err.Error(), "Ghost") {
			t.Errorf("want unknown-member error, got %v", err)
		}
	})
	t.Run("port element undeclared", func(t *testing.T) {
		u := NewUniverse()
		u.AddGroup("G")
		u.AddPort("G", "Ghost", "Start")
		if err := u.Validate(); err == nil {
			t.Error("want undeclared-port-element error")
		}
	})
	t.Run("port element outside group", func(t *testing.T) {
		u := NewUniverse()
		u.AddElement("A")
		u.AddElement("B")
		u.AddGroup("G", "A")
		u.AddPort("G", "B", "Start")
		if err := u.Validate(); err == nil {
			t.Error("want port-not-contained error")
		}
	})
	t.Run("containment cycle", func(t *testing.T) {
		u := NewUniverse()
		u.AddGroup("G1", "G2")
		u.AddGroup("G2", "G1")
		if err := u.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("want cycle error, got %v", err)
		}
	})
}

// TestOverlappingGroups exercises the paper's claim that groups may
// overlap: EL3 belongs to both G1 and G3 and mediates between them.
func TestOverlappingGroups(t *testing.T) {
	u := paperUniverse(t)
	// EL3 accesses members of both of its groups.
	if !u.Access("EL3", "EL2") || !u.Access("EL3", "EL4") {
		t.Error("overlap member must access both groups' members")
	}
	// But EL2 (only in G1) cannot reach EL4 (only in G2/G3).
	if u.Access("EL2", "EL4") {
		t.Error("non-overlapping members must stay separated")
	}
}
