package check

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
	"gem/internal/verify"
)

// withProcs raises GOMAXPROCS so the parallel engine actually fans out
// even on a single-core host.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestMatrixParallelDeterminism: every readers-writers and bounded-buffer
// cell reports the same verdict and run count with the sequential engine
// and with the streaming parallel engine (S3).
func TestMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix cells are slow; skipped in -short mode")
	}
	withProcs(t, 4)
	for _, s := range Matrix() {
		if s.Problem != "readers-writers" && s.Problem != "bounded-buffer" {
			continue
		}
		s := s
		t.Run(s.Problem+"/"+string(s.Language), func(t *testing.T) {
			seq := s.Run(Options{Parallelism: 1})
			par := s.Run(Options{Parallelism: 4})
			if seq.Verified != par.Verified {
				t.Fatalf("verdicts differ: sequential %v (%v), parallel %v (%v)",
					seq.Verified, seq.Err, par.Verified, par.Err)
			}
			if !seq.Verified {
				t.Fatalf("cell unexpectedly failing: %v", seq.Err)
			}
			if seq.Runs != par.Runs {
				t.Errorf("run counts differ: sequential %d, parallel %d", seq.Runs, par.Runs)
			}
		})
	}
}

// TestRefutationParallelDeterminism: the failing mutants are refuted at
// the same (lowest) computation index, with the same error, at any
// parallelism (S3).
func TestRefutationParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant explorations are slow; skipped in -short mode")
	}
	withProcs(t, 4)
	for _, r := range Refutations() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			problem, comps, corr, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			seqIdx, seqRes := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Parallelism: 1})
			if seqIdx < 0 {
				t.Fatal("mutant not refuted sequentially")
			}
			for trial := 0; trial < 3; trial++ {
				parIdx, parRes := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Parallelism: 4})
				if parIdx != seqIdx {
					t.Fatalf("first-failure index differs: sequential %d, parallel %d", seqIdx, parIdx)
				}
				if seqRes.Error().Error() != parRes.Error().Error() {
					t.Fatalf("counterexamples differ:\nsequential: %v\nparallel:   %v",
						seqRes.Error(), parRes.Error())
				}
			}
		})
	}
}

// TestLegalParallelDeterminism: one legality check of a refuted
// computation must enumerate the history lattice at most once even
// though several restrictions consult it.
func TestLegalParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant exploration is slow; skipped in -short mode")
	}
	r := Refutations()[0] // writers-priority monitor vs readers-priority spec
	problem, comps, corr, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := verify.CheckAll(problem, comps, corr, logic.CheckOptions{})
	if idx < 0 {
		t.Fatal("mutant not refuted")
	}
	// Project afresh so the check starts with a cold lattice cache.
	proj, err := verify.Project(comps[idx], corr)
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(proj.Comp, problem.Threads()...)
	before := history.LatticeBuilds()
	res := legal.Check(problem, proj.Comp, legal.Options{})
	if d := history.LatticeBuilds() - before; d > 1 {
		t.Errorf("lattice enumerated %d times in one legality check, want at most 1", d)
	}
	if len(res.Violations) == 0 {
		t.Fatal("expected violations on the refuted computation")
	}
}

// TestFailingCellDeterminism: a failing cell reports the same run count
// and the same error at every parallelism, and on every schedule. The
// first computation in exploration order that fails decides the cell
// and stops the exploration (Runs = its index + 1), and an exploration
// error after it is not reported in its place.
func TestFailingCellDeterminism(t *testing.T) {
	withProcs(t, 4)
	setup := func() (*spec.Spec, verify.Correspondence, error) {
		problem, err := rw.ProblemSpec([]string{"r1", "r2", "w1"}, true)
		return problem, rw.MonitorCorrespondence(), err
	}
	writersPriority := stream(Monitor, rw.NewProgram(rw.WritersPriority, rw.Workload{Readers: 2, Writers: 1}), monitor.ExploreStream)
	var comps []*core.Computation
	if _, err := writersPriority(func(c *core.Computation) bool {
		comps = append(comps, c)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		stream func(yield func(*core.Computation) bool) (bool, error)
	}{
		{"writers-priority monitor", writersPriority},
		{"deadlock after the failure", func(yield func(*core.Computation) bool) (bool, error) {
			for _, c := range comps {
				if !yield(c) {
					break
				}
			}
			return false, fmt.Errorf("check: monitor run %d deadlocked", len(comps))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Scenario{Problem: "readers-writers", Language: Monitor, Setup: setup, Stream: tc.stream}
			want := ""
			for _, j := range []int{1, 2, 4} {
				for trial := 0; trial < 5; trial++ {
					cell := s.Run(Options{Parallelism: j})
					if cell.Verified || cell.Err == nil {
						t.Fatalf("-j %d: cell verified, want a failure", j)
					}
					got := cell.Err.Error()
					if cell.Runs != 7 || !strings.HasPrefix(got, "computation 6: ") {
						t.Fatalf("-j %d trial %d: Runs %d, error %q; want Runs 7 and computation 6",
							j, trial, cell.Runs, firstLine(got))
					}
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("-j %d trial %d: error differs:\n%s\nwant:\n%s", j, trial, got, want)
					}
				}
			}
		})
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
