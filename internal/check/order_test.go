package check

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/problems/dbupdate"
)

// renderInOrder renders a computation exactly as emitted: events in
// event-ID order with their params, then each event's enables in the
// order the computation stores them. Unlike core.Fingerprint it touches
// no memoized state, so it can run before thread labels are assigned.
func renderInOrder(c *core.Computation) string {
	var sb strings.Builder
	for _, e := range c.Events() {
		fmt.Fprintf(&sb, "%d %s.%s^%d%s\n", e.ID, e.Element, e.Class, e.Seq, e.Params)
	}
	for _, e := range c.Events() {
		for _, succ := range c.Enabled(e.ID) {
			fmt.Fprintf(&sb, "%d>%d\n", e.ID, succ)
		}
	}
	return sb.String()
}

// orderHash hashes an ordered list of computations.
func orderHash(comps []*core.Computation) string {
	h := sha256.New()
	for i, c := range comps {
		fmt.Fprintf(h, "#%d\n%s", i, renderInOrder(c))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestExplorationOrderPinned pins every emitted computation, and the
// order of emission, of each exploration whose output reaches a user:
// the nine matrix cells, the two refutations, and the dbupdate
// exploration of `gemcheck distributed`. Event IDs, and so
// core.Fingerprint store keys and refutation indices, follow from this
// order; a reduction of the explorer must leave every hash unchanged.
func TestExplorationOrderPinned(t *testing.T) {
	want := map[string]string{
		"one-slot-buffer/monitor":                           "5:ff8bb977ed51c963",
		"bounded-buffer/monitor":                            "10:4453d6f969638536",
		"readers-writers/monitor":                           "72:def971d3d428ab3a",
		"one-slot-buffer/csp":                               "1:9ad73fbae430e9d0",
		"bounded-buffer/csp":                                "4:d3c1a65fafbe59a2",
		"readers-writers/csp":                               "22:23ae9a052625d3bd",
		"one-slot-buffer/ada":                               "1:84ca13efd112ebf9",
		"bounded-buffer/ada":                                "4:31614f9578b3d12e",
		"readers-writers/ada":                               "22:bf3a60cca1a9291a",
		"writers-priority-monitor vs readers-priority-spec": "66:018e2bc66212fdb3",
		"unguarded-deposit vs capacity-spec":                "10:896beac7f1bdf45a",
		"dbupdate":                                          "6:fac80edee1968251",
	}
	got := map[string]string{}
	for _, s := range Matrix() {
		var comps []*core.Computation
		if _, err := s.Stream(func(c *core.Computation) bool {
			comps = append(comps, c)
			return true
		}); err != nil {
			t.Fatalf("%s/%s: %v", s.Problem, s.Language, err)
		}
		got[s.Problem+"/"+string(s.Language)] = fmt.Sprintf("%d:%s", len(comps), orderHash(comps))
	}
	for _, r := range Refutations() {
		_, comps, _, err := r.Build()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		got[r.Name] = fmt.Sprintf("%d:%s", len(comps), orderHash(comps))
	}
	cfg := dbupdate.Config{Sites: 3, Updates: []dbupdate.Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	runs, _, err := dbupdate.Explore(cfg, dbupdate.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var comps []*core.Computation
	for _, r := range runs {
		comps = append(comps, r.Comp)
	}
	got["dbupdate"] = fmt.Sprintf("%d:%s", len(comps), orderHash(comps))

	for name, g := range got {
		if want[name] != g {
			t.Errorf("%s: emitted sequence %s, want %s", name, g, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d explorations, ran %d", len(want), len(got))
	}
}
