package rw

import (
	"testing"

	"gem/internal/history"
	"gem/internal/logic"
)

// TestHoldsAllocationCeiling pins what one check of a readers/writers
// restriction allocates on a warmed history lattice. Quantified
// variables are bound in place on the environment's binding stack, so
// what remains is per-history environments, quantifier domains and the
// lattice engine's per-binding child environments. A change that copies
// bindings per domain element again (the old evaluator made 7,861 and
// 7,813 allocations per call here) fails the ceiling.
func TestHoldsAllocationCeiling(t *testing.T) {
	s, err := ProblemSpec([]string{"r1", "r2", "w1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildComputation(s, []Transaction{
		{User: "r1", After: -1},
		{User: "r2", After: -1},
		{User: "w1", Write: true, Value: 1, After: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(history.Shared(c).Histories()); n != 68 {
		t.Fatalf("computation has %d histories, want 68", n)
	}
	restrictions := make(map[string]logic.Formula)
	for _, r := range s.Restrictions() {
		restrictions[r.Name] = r.F
	}
	for _, tt := range []struct {
		name    string
		ceiling float64
	}{
		{"writers-exclude-readers", 2535},
		{"readers-priority", 2220},
	} {
		f, ok := restrictions[tt.name]
		if !ok {
			t.Fatalf("spec has no %s restriction", tt.name)
		}
		allocs := testing.AllocsPerRun(5, func() {
			logic.Holds(f, c, logic.CheckOptions{})
		})
		t.Logf("%s: %.0f allocations per Holds", tt.name, allocs)
		if allocs > tt.ceiling {
			t.Errorf("%s: %.0f allocations per Holds, ceiling %.0f", tt.name, allocs, tt.ceiling)
		}
	}
}
