package rw

import (
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/history"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/thread"
	"gem/internal/verify"
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

// TestCounterexampleAllocationCeiling pins what refuting each of
// experiment E12's three failing formulas allocates on a readers=3
// projection: the counterexample path a user runs while debugging a
// broken spec, the lattice engine's bounds plus the witness it extracts
// from a warmed history lattice. The first run the readers-priority
// monitor explores refutes all three.
func TestCounterexampleAllocationCeiling(t *testing.T) {
	problem, err := ProblemSpec([]string{"r1", "r2", "r3", "w1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	var c *core.Computation
	_, err = monitor.ExploreStream(NewProgram(ReadersPriority, Workload{Readers: 3, Writers: 1}), monitor.ExploreOptions{}, func(r explore.Run) bool {
		proj, err := verify.Project(r.Comp, MonitorCorrespondence())
		if err != nil {
			t.Fatal(err)
		}
		c = proj.Comp
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(c, problem.Threads()...)
	writeDone := logic.Exists{Var: "fw", Ref: core.Ref("", "FinishWrite"), Body: logic.Occurred{Var: "fw"}}
	for _, tt := range []struct {
		name    string
		f       logic.Formula
		ceiling float64
	}{
		{"reads-finish-first", logic.Box{F: logic.Implies{
			If: logic.And{
				logic.Exists{Var: "rq", Ref: core.Ref("db.control", "ReqWrite"), Body: logic.Occurred{Var: "rq"}},
				logic.Not{F: writeDone},
			},
			Then: logic.Diamond{F: logic.And{
				logic.Exists{Var: "fr", Ref: core.Ref("", "FinishRead"), Body: logic.New{Var: "fr"}},
				logic.Not{F: writeDone},
			}},
		}}, 1767},
		{"exists-box", logic.Exists{Var: "sw", Ref: core.Ref("db.control", "StartWrite"),
			Body: logic.Box{F: logic.Occurred{Var: "sw"}}}, 21},
		{"temporal-or", logic.Or{
			logic.Box{F: logic.Exists{Var: "g", Ref: core.Ref("db.data", "Getval"), Body: logic.Occurred{Var: "g"}}},
			logic.Box{F: logic.Exists{Var: "a", Ref: core.Ref("db.data", "Assign"), Body: logic.Occurred{Var: "a"}}},
		}, 549},
	} {
		if logic.Holds(tt.f, c, logic.CheckOptions{}) == nil {
			t.Fatalf("%s: not refuted on the first readers=3 projection", tt.name)
		}
		allocs := testing.AllocsPerRun(5, func() {
			logic.Holds(tt.f, c, logic.CheckOptions{})
		})
		t.Logf("%s: %.0f allocations per refuting Holds", tt.name, allocs)
		if allocs > tt.ceiling {
			t.Errorf("%s: %.0f allocations per refuting Holds, ceiling %.0f", tt.name, allocs, tt.ceiling)
		}
	}
}

// TestBuildAllocationCeiling pins what building one computation
// allocates, from a prepared list of events over four elements. Each
// part of a built computation (its events, its offsets, its enable and
// element lists, and its reach and pred rows together) is one
// allocation, and Build's scratch is two more; only the builder's
// events and enables, which this caller does not size with Grow, and
// its name table grow by doubling. So going from 8 to 64 events adds a few
// allocations per doubling, not one or more per event. The per-event
// layout this replaced made 84 and 550, a graph edge list that grew by
// doubling 32 and 41, and a separate order graph and per-element map 28
// and 34.
func TestBuildAllocationCeiling(t *testing.T) {
	elements := []string{"a", "b", "c", "d"}
	for _, tt := range []struct {
		events  int
		ceiling float64
	}{
		{8, 17},
		{64, 31},
	} {
		params := make([]core.Params, tt.events)
		for i := range params {
			params[i] = core.NewParams(core.P("i", core.Int(int64(i))))
		}
		allocs := testing.AllocsPerRun(20, func() {
			b := core.NewBuilder()
			for i, p := range params {
				b.Event(elements[i%len(elements)], "Step", p)
			}
			for i := 1; i < tt.events; i++ {
				b.Enable(core.EventID(i-1), core.EventID(i))
			}
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d events: %.0f allocations per build", tt.events, allocs)
		if allocs > tt.ceiling {
			t.Errorf("%d events: %.0f allocations per build, ceiling %.0f", tt.events, allocs, tt.ceiling)
		}
	}
}
