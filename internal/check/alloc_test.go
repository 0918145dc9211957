//go:build !race

package check

import (
	"runtime"
	"testing"

	"gem/internal/core"
)

// TestMatrixExplorationCeiling bounds what one pass over the
// explorations of the matrix allocates: streaming the nine cells and
// building both refutations, the monitor, CSP and ADA simulators all,
// with no check. On a warm rerun the store serves the checks, so this is
// most of what such a run allocates. It allocated 14.3 MB in 53.8 k
// allocations while the walker cloned the machine for every branch and
// each clone's log copied the run so far on its first event, and 7.05 MB
// in 35.6 k while every emitted event carried its strings and parameter
// list and every built run held a pointer per event and per relation
// row; a walk or a log that copies again, or a layout that brings those
// back, fails here. The race detector changes allocation sizes, so the
// test does not build under -race.
func TestMatrixExplorationCeiling(t *testing.T) {
	const (
		maxAllocMB = 4.1
		maxAllocs  = 34_500
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range Matrix() {
		if _, err := s.Stream(func(*core.Computation) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range Refutations() {
		if _, _, _, err := r.Build(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("exploring the matrix and building the refutations allocated %.2f MB in %d allocations", allocMB, allocs)
	if allocMB > maxAllocMB {
		t.Errorf("exploring allocated %.2f MB, ceiling %.1f MB", allocMB, maxAllocMB)
	}
	if allocs > maxAllocs {
		t.Errorf("exploring made %d allocations, ceiling %d", allocs, maxAllocs)
	}
}
