package logic

import (
	"runtime"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
)

// withProcs raises GOMAXPROCS for the duration of a test so the parallel
// code paths are exercised even on a single-core host (Workers caps the
// pool at GOMAXPROCS).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestHoldsEveryIndices(t *testing.T) {
	withProcs(t, 4)
	c1, _ := diamondComp(t)
	c2, _ := diamondComp(t)
	fs := []Formula{TrueF{}, FalseF{}}
	for _, par := range []int{1, 4} {
		ci, fi, cx := HoldsEvery(fs, []*core.Computation{c1, c2}, CheckOptions{Parallelism: par})
		if ci != 0 || fi != 1 || cx == nil {
			t.Errorf("par %d: HoldsEvery = (%d, %d, %v), want (0, 1, cx)", par, ci, fi, cx)
		}
	}
	if ci, fi, cx := HoldsEvery(fs, nil, CheckOptions{}); ci != -1 || fi != -1 || cx != nil {
		t.Errorf("empty comps: HoldsEvery = (%d, %d, %v)", ci, fi, cx)
	}
}

// TestLatticeBuiltOncePerCheck: checking several □ restrictions against
// one computation — both the □-invariant reduction and the history-pairs
// reduction — enumerates the history lattice exactly once.
func TestLatticeBuiltOncePerCheck(t *testing.T) {
	c, _ := diamondComp(t)
	inv := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL4", "E"), Body: Occurred{Var: "x"}},
		Then: Exists{Var: "y", Ref: core.Ref("EL2", "E"), Body: Occurred{Var: "y"}},
	}}
	pairs := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "x"}},
		Then: Box{F: Exists{Var: "y", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "y"}}},
	}}
	before := history.LatticeBuilds()
	if idx, cx := HoldsAll([]Formula{inv, pairs, inv, pairs}, c, CheckOptions{}); idx >= 0 {
		t.Fatalf("restrictions should hold, failed at %d: %v", idx, cx.Error())
	}
	if d := history.LatticeBuilds() - before; d != 1 {
		t.Errorf("lattice enumerated %d times across 4 restrictions, want 1", d)
	}
	// A bounded check bypasses the cache and must not enumerate it.
	before = history.LatticeBuilds()
	if cx := Holds(inv, c, CheckOptions{MaxHistories: 3}); cx != nil {
		t.Fatalf("bounded check failed: %v", cx.Error())
	}
	if d := history.LatticeBuilds() - before; d != 0 {
		t.Errorf("bounded check built the shared lattice %d times, want 0", d)
	}
}
