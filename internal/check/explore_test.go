package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/explore"
	"gem/internal/explore/exploretest"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
	"gem/internal/verify"
)

// TestRefutationIndices pins which computation refutes each negative
// control, and out of how many.
func TestRefutationIndices(t *testing.T) {
	if testing.Short() {
		t.Skip("checks every refutation computation; skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunRefutations(&buf); err != nil {
		t.Fatalf("refutations: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"(computation 6 of 66)", "(computation 0 of 10)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("refutation report lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestRefutationVerdictVectors pins every computation's verdict in each
// negative control, not only the first failure: a kernel bug that
// misses one of several violations leaves the first index, and so
// TestRefutationIndices, unchanged.
func TestRefutationVerdictVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("checks every refutation computation; skipped in -short mode")
	}
	want := map[string]struct {
		failing []int
		of      int
	}{
		"writers-priority-monitor vs readers-priority-spec": {[]int{6, 25}, 66},
		"unguarded-deposit vs capacity-spec":                {[]int{0, 3}, 10},
	}
	for _, r := range Refutations() {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("refutation %q has no pinned verdict vector", r.Name)
			continue
		}
		problem, comps, corr, err := r.Build()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		var failing []int
		for i, c := range comps {
			if !verify.Check(problem, c, corr, logic.CheckOptions{}).Sat() {
				failing = append(failing, i)
			}
		}
		if fmt.Sprint(failing) != fmt.Sprint(w.failing) || len(comps) != w.of {
			t.Errorf("%s: computations %v of %d fail, want %v of %d", r.Name, failing, len(comps), w.failing, w.of)
		}
	}
}

// TestReadersPriorityVariantRuns pins the readers-priority row of
// `gemcheck rw`: 102 computations over its two workloads.
func TestReadersPriorityVariantRuns(t *testing.T) {
	total := 0
	for _, w := range []rw.Workload{{Readers: 2, Writers: 1}, {Readers: 1, Writers: 2}} {
		runs, _, err := monitor.Explore(rw.NewProgram(rw.ReadersPriority, w), monitor.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total += len(runs)
	}
	if total != 102 {
		t.Errorf("readers-priority explores %d computations, want 102", total)
	}
}

// computations explores p with the given options and returns the
// computations of its runs, in order.
func computations[P, R any](t *testing.T, p P, exploreFn func(P, explore.Options) ([]R, bool, error),
	comp func(R) *core.Computation, opts explore.Options) []*core.Computation {
	t.Helper()
	runs, truncated, err := exploreFn(p, opts)
	if err != nil || truncated {
		t.Fatalf("truncated=%v err=%v", truncated, err)
	}
	out := make([]*core.Computation, len(runs))
	for i, r := range runs {
		out[i] = comp(r)
	}
	return out
}

// reductionOracle checks that the reduced exploration of p emits each
// computation the unreduced exploration reaches exactly once.
func reductionOracle[P, R any](p P, exploreFn func(P, explore.Options) ([]R, bool, error),
	comp func(R) *core.Computation) func(*testing.T) {
	return func(t *testing.T) {
		reduced := computations(t, p, exploreFn, comp, explore.Options{MaxRuns: 60000})
		full := computations(t, p, exploreFn, comp, explore.Options{MaxRuns: 60000, NoReduction: true})
		if err := exploretest.SameComputations(reduced, full, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReductionPreservesComputations is the reduction oracle for all
// three languages over the matrix programs. The unreduced Monitor and
// ADA readers/writers explorations take from seconds to minutes and are
// left out; internal/monitor runs the same oracle on smaller monitors.
func TestReductionPreservesComputations(t *testing.T) {
	one := oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}
	bb := boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}
	rww := rw.Workload{Readers: 2, Writers: 1}
	monComp := func(r monitor.Run) *core.Computation { return r.Comp }
	cspComp := func(r csp.Run) *core.Computation { return r.Comp }
	adaComp := func(r ada.Run) *core.Computation { return r.Comp }

	t.Run("monitor/one-slot-buffer", reductionOracle(oneslot.NewMonitorProgram(one), monitor.Explore, monComp))
	t.Run("monitor/bounded-buffer", reductionOracle(boundedbuf.NewMonitorProgram(bb), monitor.Explore, monComp))
	t.Run("csp/one-slot-buffer", reductionOracle(oneslot.NewCSPProgram(one), csp.Explore, cspComp))
	t.Run("csp/bounded-buffer", reductionOracle(boundedbuf.NewCSPProgram(bb), csp.Explore, cspComp))
	t.Run("csp/readers-writers", reductionOracle(rw.NewCSPProgram(rww), csp.Explore, cspComp))
	t.Run("ada/one-slot-buffer", reductionOracle(oneslot.NewAdaProgram(one), ada.Explore, adaComp))
	t.Run("ada/bounded-buffer", reductionOracle(boundedbuf.NewAdaProgram(bb), ada.Explore, adaComp))

	// Programs whose choices their computations do not record: the walk
	// completes each of their computations once per choice, and the
	// reduced walk must still emit it once.
	busy := []ada.Stmt{ada.Op{Class: "Busy"}}
	ping := ada.EntryCall{Task: "server", Entry: "Ping"}
	t.Run("ada/two-unserved-callers", reductionOracle(&ada.Program{Tasks: []ada.Task{
		{Name: "server", Entries: []string{"Ping"}, Body: busy},
		{Name: "a", Body: []ada.Stmt{ping}},
		{Name: "b", Body: []ada.Stmt{ping}},
	}}, ada.Explore, adaComp))
	t.Run("ada/select-same-entry", reductionOracle(&ada.Program{Tasks: []ada.Task{
		{Name: "server", Entries: []string{"Ping"}, Body: []ada.Stmt{ada.Select{Alts: []ada.SelectAlt{
			{Accept: ada.Accept{Entry: "Ping", Body: busy}},
			{Accept: ada.Accept{Entry: "Ping", Body: busy}},
		}}}},
		{Name: "a", Body: []ada.Stmt{ping}},
	}}, ada.Explore, adaComp))
	t.Run("ada/select-else-race", reductionOracle(&ada.Program{Tasks: []ada.Task{
		{Name: "server", Entries: []string{"Ping"}, Body: []ada.Stmt{
			ada.Select{Alts: []ada.SelectAlt{{Accept: ada.Accept{Entry: "Ping"}}}, Else: []ada.Stmt{}},
			ada.Accept{Entry: "Ping"},
		}},
		{Name: "a", Body: []ada.Stmt{ping}},
	}}, ada.Explore, adaComp))
	op := []csp.Stmt{csp.Op{Class: "A"}}
	recv := csp.Recv{From: "p", Var: "x"}
	sendOne := csp.Process{Name: "p", Body: []csp.Stmt{csp.Send{To: "q", E: csp.IntLit(1)}}}
	t.Run("csp/equal-boolean-branches", reductionOracle(&csp.Program{Processes: []csp.Process{
		{Name: "q", Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{{Body: op}, {Body: op}}}}},
	}}, csp.Explore, cspComp))
	t.Run("csp/two-receives-from-one-sender", reductionOracle(&csp.Program{Processes: []csp.Process{
		sendOne,
		{Name: "q", Vars: []string{"x", "y"}, Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{
			{Comm: recv},
			{Comm: csp.Recv{From: "p", Var: "y"}},
		}}}},
	}}, csp.Explore, cspComp))
	t.Run("csp/boolean-branch-then-receive", reductionOracle(&csp.Program{Processes: []csp.Process{
		sendOne,
		{Name: "q", Vars: []string{"x"}, Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{
			{Comm: recv},
			{Body: []csp.Stmt{recv}},
		}}}},
	}}, csp.Explore, cspComp))
}
