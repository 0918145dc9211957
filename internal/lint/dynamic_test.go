package lint_test

import (
	"testing"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/legal"
	"gem/internal/lint"
)

// dynamicSrc declares the admin element, so group-change events may
// alter the access relation at run time: joiner, outside G, may enable
// inner's events once it has been added to G.
const dynamicSrc = `SPEC dyn
ELEMENT inner
  EVENTS
    Use
END
ELEMENT joiner
  EVENTS
    Act
END
ELEMENT groups.admin
  EVENTS
    AddMember(group: NAME, member: NAME)
    RemoveMember(group: NAME, member: NAME)
END
GROUP G MEMBERS(inner) END
RESTRICTION "need": PREREQ(joiner.Act -> inner.Use) ;
RESTRICTION "never": (FORALL a: joiner.Act) ((FORALL u: inner.Use) (a |> u -> FALSE)) ;
`

// TestDynamicGroupsAdmitEveryEdge: on a spec that declares the admin
// element, no pass may judge access by the static groups. The witness
// AddMember(G, joiner) |> joiner.Act |> inner.Use is legal and satisfies
// "need", so "need" is not access-forbidden (GEM005), and it falsifies
// "never", whose antecedent is therefore not vacuous (GEM007).
func TestDynamicGroupsAdmitEveryEdge(t *testing.T) {
	for _, deep := range []bool{false, true} {
		res, err := lint.AnalyzeSource(dynamicSrc, deep)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Diags {
			if d.Code != lint.CodeDeadDecl {
				t.Errorf("deep=%v: unexpected finding %s", deep, d)
			}
		}
	}

	s, err := gemlang.Parse(dynamicSrc)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder()
	join := b.Event(core.AdminElement, core.AddMemberClass,
		core.NewParams(core.P("group", core.Str("G")), core.P("member", core.Str("joiner"))))
	act := b.Event("joiner", "Act", core.Params{})
	use := b.Event("inner", "Use", core.Params{})
	b.Enable(join, act)
	b.Enable(act, use)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if len(res.Violations) != 1 || res.Violations[0].Kind != legal.RestrictionViolation ||
		res.Violations[0].Restriction != "never" {
		t.Fatalf("the witness must be legal but for %q: %v", "never", res.Violations)
	}
}
