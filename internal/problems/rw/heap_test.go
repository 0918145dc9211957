//go:build !race

package rw

import (
	"runtime"
	"testing"

	"gem/internal/monitor"
)

// TestExploredHeapCeiling bounds the live heap that the explored runs of
// the readers=3 monitor hold: 3,480 computations, 248,724 events. A
// long-lived checker keeps them all, and the collector marks them on
// every cycle. They took 188 MB in 1.63 M objects while every event
// carried its own parameter map and every computation allocated per
// event, and 224 k objects while every monitor event carried its own copy
// of its element name; a layout that brings any of these back fails
// here. The race detector changes allocation sizes, so the test does not
// build under -race.
func TestExploredHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 3,480 runs")
	}
	const (
		maxMB      = 110
		maxObjects = 290_000
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runs, _, err := monitor.Explore(NewProgram(ReadersPriority, Workload{Readers: 3, Writers: 1}), monitor.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	events := 0
	for _, r := range runs {
		events += r.Comp.NumEvents()
	}
	if len(runs) != 3480 || events != 248724 {
		t.Fatalf("explored %d runs with %d events, want 3480 and 248724", len(runs), events)
	}
	mb := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	objects := after.HeapObjects - before.HeapObjects
	t.Logf("retained runs: %.1f MB in %d heap objects", mb, objects)
	if mb > maxMB {
		t.Errorf("retained runs take %.1f MB, ceiling %d MB", mb, maxMB)
	}
	if objects > maxObjects {
		t.Errorf("retained runs take %d heap objects, ceiling %d", objects, maxObjects)
	}
	runtime.KeepAlive(runs)
}
