package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gem/internal/ada"
	"gem/internal/csp"
	"gem/internal/explore"
	"gem/internal/explore/exploretest"
	"gem/internal/lang"
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

// runs explores p with the given options and returns its runs, in
// order, as the reduction oracle compares them.
func runs[P any](t *testing.T, p P, stream func(P, explore.Options, func(explore.Run) bool) (bool, error),
	opts explore.Options) []explore.Run {
	t.Helper()
	got, truncated, err := explore.Collect(stream, p, opts)
	if err != nil || truncated {
		t.Fatalf("truncated=%v err=%v", truncated, err)
	}
	return got
}

// reductionOracle checks that the reduced exploration of p emits each
// run the unreduced exploration reaches, by computation and deadlock
// flag, exactly once.
func reductionOracle[P any](p P, stream func(P, explore.Options, func(explore.Run) bool) (bool, error)) func(*testing.T) {
	return func(t *testing.T) {
		reduced := runs(t, p, stream, explore.Options{MaxRuns: 60000})
		full := runs(t, p, stream, explore.Options{MaxRuns: 60000, NoReduction: true})
		if err := exploretest.SameRuns(reduced, full, false); err != nil {
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

	t.Run("monitor/one-slot-buffer", reductionOracle(oneslot.NewMonitorProgram(one), monitor.ExploreStream))
	t.Run("monitor/bounded-buffer", reductionOracle(boundedbuf.NewMonitorProgram(bb), monitor.ExploreStream))
	t.Run("csp/one-slot-buffer", reductionOracle(oneslot.NewCSPProgram(one), csp.ExploreStream))
	t.Run("csp/bounded-buffer", reductionOracle(boundedbuf.NewCSPProgram(bb), csp.ExploreStream))
	t.Run("csp/readers-writers", reductionOracle(rw.NewCSPProgram(rww), csp.ExploreStream))
	t.Run("ada/one-slot-buffer", reductionOracle(oneslot.NewAdaProgram(one), ada.ExploreStream))
	t.Run("ada/bounded-buffer", reductionOracle(boundedbuf.NewAdaProgram(bb), ada.ExploreStream))

	// Programs whose choices their computations do not record: the walk
	// completes each of their computations once per choice, and the
	// reduced walk must still emit it once.
	busy := []ada.Stmt{ada.Op{Class: "Busy"}}
	ping := ada.EntryCall{Task: "server", Entry: "Ping"}
	t.Run("ada/two-unserved-callers", reductionOracle(&ada.Program{Tasks: []ada.Task{
		{Name: "server", Entries: []string{"Ping"}, Body: busy},
		{Name: "a", Body: []ada.Stmt{ping}},
		{Name: "b", Body: []ada.Stmt{ping}},
	}}, ada.ExploreStream))
	t.Run("ada/select-same-entry", reductionOracle(&ada.Program{Tasks: []ada.Task{
		{Name: "server", Entries: []string{"Ping"}, Body: []ada.Stmt{ada.Select{Alts: []ada.SelectAlt{
			{Accept: ada.Accept{Entry: "Ping", Body: busy}},
			{Accept: ada.Accept{Entry: "Ping", Body: busy}},
		}}}},
		{Name: "a", Body: []ada.Stmt{ping}},
	}}, ada.ExploreStream))
	t.Run("ada/select-else-race", reductionOracle(&ada.Program{Tasks: []ada.Task{
		{Name: "server", Entries: []string{"Ping"}, Body: []ada.Stmt{
			ada.Select{Alts: []ada.SelectAlt{{Accept: ada.Accept{Entry: "Ping"}}}, Else: []ada.Stmt{}},
			ada.Accept{Entry: "Ping"},
		}},
		{Name: "a", Body: []ada.Stmt{ping}},
	}}, ada.ExploreStream))
	op := []csp.Stmt{csp.Op{Class: "A"}}
	recv := csp.Recv{From: "p", Var: "x"}
	sendOne := csp.Process{Name: "p", Body: []csp.Stmt{csp.Send{To: "q", E: lang.IntLit(1)}}}
	t.Run("csp/equal-boolean-branches", reductionOracle(&csp.Program{Processes: []csp.Process{
		{Name: "q", Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{{Body: op}, {Body: op}}}}},
	}}, csp.ExploreStream))
	t.Run("csp/two-receives-from-one-sender", reductionOracle(&csp.Program{Processes: []csp.Process{
		sendOne,
		{Name: "q", Vars: []string{"x", "y"}, Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{
			{Comm: recv},
			{Comm: csp.Recv{From: "p", Var: "y"}},
		}}}},
	}}, csp.ExploreStream))
	t.Run("csp/boolean-branch-then-receive", reductionOracle(&csp.Program{Processes: []csp.Process{
		sendOne,
		{Name: "q", Vars: []string{"x"}, Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{
			{Comm: recv},
			{Body: []csp.Stmt{recv}},
		}}}},
	}}, csp.ExploreStream))
}
