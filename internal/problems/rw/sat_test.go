package rw

import (
	"fmt"
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/explore"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/verify"
)

// These tests run the paper's Section 9 "sat" methodology end to end
// (experiment E7, Readers/Writers column): every computation of each
// solution, projected onto its significant objects, must be legal with
// respect to the Section 8 problem specification.

func clientNames(w Workload) []string {
	var out []string
	for i := 1; i <= w.Readers; i++ {
		out = append(out, fmt.Sprintf("r%d", i))
	}
	for j := 1; j <= w.Writers; j++ {
		out = append(out, fmt.Sprintf("w%d", j))
	}
	return out
}

func TestSatMonitorReadersPriority(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sat check is slow; skipped in -short mode")
	}
	w := Workload{Readers: 2, Writers: 1}
	problem, err := ProblemSpec(clientNames(w), true)
	if err != nil {
		t.Fatal(err)
	}
	runs := exploreVariant(t, ReadersPriority, w)
	corr := MonitorCorrespondence()
	for i, r := range runs {
		res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
		if !res.Sat() {
			t.Fatalf("run %d fails sat: %v\nprogram:\n%s\nprojection:\n%s",
				i, res.Error(), r.Comp, projString(res))
		}
	}
	t.Logf("verified %d computations against the readers-priority problem spec", len(runs))
}

func projString(res verify.Result) string {
	if res.Projection == nil {
		return "<none>"
	}
	return res.Projection.Comp.String()
}

// TestSatRefutesWritersPriorityMonitor: the writers-priority monitor must
// FAIL the readers-priority problem spec on some computation, and pass
// the priority-free spec on all — the sat method distinguishes the
// variants.
func TestSatRefutesWritersPriorityMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sat check is slow; skipped in -short mode")
	}
	w := Workload{Readers: 2, Writers: 1}
	withPriority, err := ProblemSpec(clientNames(w), true)
	if err != nil {
		t.Fatal(err)
	}
	noPriority, err := ProblemSpec(clientNames(w), false)
	if err != nil {
		t.Fatal(err)
	}
	runs := exploreVariant(t, WritersPriority, w)
	corr := MonitorCorrespondence()
	failed := false
	for _, r := range runs {
		res := verify.Check(withPriority, r.Comp, corr, logic.CheckOptions{})
		if !res.Sat() {
			failed = true
		}
		res2 := verify.Check(noPriority, r.Comp, corr, logic.CheckOptions{})
		if !res2.Sat() {
			t.Fatalf("writers-priority monitor must satisfy the priority-free spec: %v", res2.Error())
		}
	}
	if !failed {
		t.Error("writers-priority monitor must be refuted by the readers-priority spec")
	}
}

func TestSatCSP(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sat check is slow; skipped in -short mode")
	}
	w := Workload{Readers: 2, Writers: 1}
	problem, err := ProblemSpec(clientNames(w), true)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewCSPProgram(w)
	runs, truncated, err := csp.Explore(prog, csp.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(runs) == 0 {
		t.Fatalf("csp exploration: %d runs, truncated=%v", len(runs), truncated)
	}
	corr := CSPCorrespondence(w)
	for i, r := range runs {
		if r.Deadlock {
			t.Fatalf("csp run %d deadlocked:\n%s", i, r.Comp)
		}
		res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
		if !res.Sat() {
			t.Fatalf("csp run %d fails sat: %v\n%s", i, res.Error(), r.Comp)
		}
	}
	t.Logf("verified %d CSP computations", len(runs))
}

func TestSatAda(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sat check is slow; skipped in -short mode")
	}
	w := Workload{Readers: 2, Writers: 1}
	problem, err := ProblemSpec(clientNames(w), true)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewAdaProgram(w)
	runs, truncated, err := explore.Collect(ada.ExploreStream, prog, ada.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(runs) == 0 {
		t.Fatalf("ada exploration: %d runs, truncated=%v", len(runs), truncated)
	}
	corr := AdaCorrespondence()
	for i, r := range runs {
		if r.Deadlock {
			t.Fatalf("ada run %d deadlocked:\n%s", i, r.Comp)
		}
		res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
		if !res.Sat() {
			t.Fatalf("ada run %d fails sat: %v\n%s", i, res.Error(), r.Comp)
		}
	}
	t.Logf("verified %d ADA computations", len(runs))
}

// TestCSPSolutionSatisfiesCSPSpec double-checks the generated CSP
// computations against the CSP primitive's own spec (legality of the
// substrate, E5 tie-in).
func TestCSPSolutionMutualExclusionOnData(t *testing.T) {
	w := Workload{Readers: 2, Writers: 1}
	prog := NewCSPProgram(w)
	runs, _, err := csp.Explore(prog, csp.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	// Every Getval must see 0 or the writer's value — never a torn state.
	for _, r := range runs {
		for _, id := range r.Comp.EventsOf(core.Ref(DataElement, "Getval")) {
			got, _ := r.Comp.Event(id).Params().Get("oldval")
			if got != core.Int(0) && got != core.Int(101) {
				t.Fatalf("impossible read %v", got)
			}
		}
	}
}

// TestCSPAndAdaSolutionsSatisfyPrimitiveSpecs closes the E5 loop on the
// real solutions: every generated computation of the CSP and ADA
// controllers is legal with respect to its primitive's own GEM spec
// (including group access through the shared data element).
func TestCSPAndAdaSolutionsSatisfyPrimitiveSpecs(t *testing.T) {
	w := Workload{Readers: 2, Writers: 1}

	cspProg := NewCSPProgram(w)
	cspSpec := csp.Spec(cspProg)
	if err := cspSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	cspRuns, _, err := csp.Explore(cspProg, csp.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cspRuns {
		if res := legal.Check(cspSpec, r.Comp, legal.Options{}); !res.Legal() {
			t.Fatalf("csp run %d violates the CSP spec: %v", i, res.Error())
		}
	}

	adaProg := NewAdaProgram(w)
	adaSpec := ada.Spec(adaProg)
	if err := adaSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	adaRuns, _, err := explore.Collect(ada.ExploreStream, adaProg, ada.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range adaRuns {
		if res := legal.Check(adaSpec, r.Comp, legal.Options{}); !res.Legal() {
			t.Fatalf("ada run %d violates the ADA spec: %v", i, res.Error())
		}
	}
}
