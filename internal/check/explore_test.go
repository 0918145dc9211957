package check

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/explore"
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

// canonicalComp renders a computation's partial order as a canonical
// string (events keyed by element+occurrence, edges sorted).
func canonicalComp(c *core.Computation) string {
	labels := make([]string, c.NumEvents())
	for _, e := range c.Events() {
		labels[e.ID] = fmt.Sprintf("%s^%d:%s%s", e.Element, e.Seq, e.Class, e.Params)
	}
	lines := append([]string(nil), labels...)
	for _, e := range c.Events() {
		for _, succ := range c.Enabled(e.ID) {
			lines = append(lines, labels[e.ID]+">"+labels[succ])
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// computations explores with the given options and returns the set of
// partial orders reached.
func computations[P, R any](t *testing.T, p P, exploreFn func(P, explore.Options) ([]R, bool, error),
	comp func(R) *core.Computation, opts explore.Options) map[string]bool {
	t.Helper()
	runs, truncated, err := exploreFn(p, opts)
	if err != nil || truncated {
		t.Fatalf("truncated=%v err=%v", truncated, err)
	}
	out := make(map[string]bool, len(runs))
	for _, r := range runs {
		out[canonicalComp(comp(r))] = true
	}
	return out
}

// reductionOracle checks that reduced and unreduced exploration of p
// reach exactly the same computations.
func reductionOracle[P, R any](p P, exploreFn func(P, explore.Options) ([]R, bool, error),
	comp func(R) *core.Computation) func(*testing.T) {
	return func(t *testing.T) {
		reduced := computations(t, p, exploreFn, comp, explore.Options{MaxRuns: 60000})
		full := computations(t, p, exploreFn, comp, explore.Options{MaxRuns: 60000, NoReduction: true})
		if len(reduced) != len(full) {
			t.Fatalf("reduced explores %d computations, unreduced %d", len(reduced), len(full))
		}
		for k := range full {
			if !reduced[k] {
				t.Fatalf("computation missing from reduced exploration:\n%s", k)
			}
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
}
