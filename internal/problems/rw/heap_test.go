//go:build !race

package rw

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"gem/internal/explore"
	"gem/internal/monitor"
)

// TestExploredHeapCeiling bounds the live heap that the explored runs of
// the readers=3 monitor hold: 3,480 computations, 248,724 events. A
// long-lived checker keeps them all, and the collector marks them on
// every cycle. They took 188 MB in 1.63 M objects while every event
// carried its own parameter map and every computation allocated per
// event, 224 k objects while every monitor event carried its own copy
// of its element name, and 72.6 MB in 148 k objects, 56.7 MB of them
// scannable, while each event was an object of its own that pointed at
// its names and each relation row was a slice, and 24.4 k objects, 1.5
// MB scannable, while every run carried a map of the monitor's final
// variables; a layout that brings any of these back fails here. The
// runs' events and rows now hold no pointers, so at most a tenth of
// their bytes is scannable (/gc/scan/heap:bytes). It also bounds what the exploration allocates
// on the way: 140 MB while the runs held pointers, 598 MB
// in 3.54 M allocations while every leaf rendered and hashed a canonical
// key of its run to drop repeats that sleep sets never reach, and 320 MB
// in 694 k while the walker cloned the machine for every branch and each
// clone's log copied the run so far on its first event, so a run key or
// a copying walk brought back into the explorer fails here too. The
// 3,480 runs must be 3,480 different computations. The race detector
// changes allocation sizes, so the test does not build under -race.
func TestExploredHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 3,480 runs")
	}
	const (
		maxMB         = 32
		maxObjects    = 22_000
		maxScanFactor = 0.10 // of the retained bytes

		maxAllocMB = 75
		maxAllocs  = 560_000
	)
	var before, after runtime.MemStats
	scan := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	runtime.GC()
	runtime.ReadMemStats(&before)
	metrics.Read(scan)
	scanBefore := scan[0].Value.Uint64()
	runs, _, err := monitor.Explore(NewProgram(ReadersPriority, Workload{Readers: 3, Writers: 1}), monitor.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	metrics.Read(scan)
	scanMB := (float64(scan[0].Value.Uint64()) - float64(scanBefore)) / (1 << 20)
	events := 0
	for _, r := range runs {
		events += r.Comp.NumEvents()
	}
	if len(runs) != 3480 || events != 248724 {
		t.Fatalf("explored %d runs with %d events, want 3480 and 248724", len(runs), events)
	}
	mb := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	objects := after.HeapObjects - before.HeapObjects
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("retained runs: %.1f MB (%.1f MB scannable) in %d heap objects; exploring allocated %.1f MB in %d allocations", mb, scanMB, objects, allocMB, allocs)
	if mb > maxMB {
		t.Errorf("retained runs take %.1f MB, ceiling %d MB", mb, maxMB)
	}
	if scanMB > maxScanFactor*mb {
		t.Errorf("retained runs hold %.1f MB the collector scans, ceiling %.0f%% of their %.1f MB", scanMB, 100*maxScanFactor, mb)
	}
	if objects > maxObjects {
		t.Errorf("retained runs take %d heap objects, ceiling %d", objects, maxObjects)
	}
	if allocMB > maxAllocMB {
		t.Errorf("exploring allocated %.1f MB, ceiling %d MB", allocMB, maxAllocMB)
	}
	if allocs > maxAllocs {
		t.Errorf("exploring made %d allocations, ceiling %d", allocs, maxAllocs)
	}
	keys := make(map[string]bool, len(runs))
	for _, r := range runs {
		keys[explore.Key(r.Comp)] = true
	}
	if len(keys) != len(runs) {
		t.Errorf("%d runs are %d different computations", len(runs), len(keys))
	}
}
