package check

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/oracle"
	"gem/internal/spec"
	"gem/internal/verify"
)

// Spec-level counter-verification of the checker: every shipped problem
// specification, checked over its exhaustively explored solutions and
// over the failing mutants, must judge every restriction of every
// projected computation as the oracle (internal/oracle) does, and every
// counterexample must independently falsify its restriction. The oracle
// refuses a computation with too many complete sequences for it to
// enumerate — the readers/writers projections' temporal restrictions —
// and those are counted, never passed.

// againstOracle judges every restriction of problem on the projection of
// res with the oracle and fails t on each one the check judged
// differently. It returns how many restrictions the oracle judged and
// how many it refused as too large.
func againstOracle(t *testing.T, problem *spec.Spec, res verify.Result) (judged, refused int) {
	t.Helper()
	violated := map[string]bool{}
	for _, v := range res.Legality.Violations {
		violated[v.Owner+"/"+v.Restriction] = true
		if v.Cx != nil {
			if err := v.Cx.Verify(); err != nil {
				t.Errorf("bogus counterexample for %s: %v", v.Restriction, err)
			}
		}
	}
	for _, r := range problem.Restrictions() {
		key := r.Owner + "/" + r.Name
		holds, err := oracle.Holds(r.F, res.Projection.Comp)
		switch {
		case err != nil && strings.Contains(err.Error(), "more than"):
			refused++
		case err != nil:
			t.Fatalf("oracle on %s: %v", key, err)
		case holds == violated[key]:
			t.Errorf("restriction %s: check violated=%v, oracle holds=%v", key, violated[key], holds)
		default:
			judged++
		}
	}
	return judged, refused
}

// TestMatrixEngineAgreement runs all nine matrix cells and checks every
// projected computation of each against the oracle.
func TestMatrixEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix cells are slow; skipped in -short mode")
	}
	for _, s := range Matrix() {
		s := s
		t.Run(s.Problem+"/"+string(s.Language), func(t *testing.T) {
			cell := s.Run(Options{Parallelism: 1})
			if !cell.Verified {
				t.Fatalf("cell unexpectedly failing: %v", cell.Err)
			}
			problem, corr, err := s.Setup()
			if err != nil {
				t.Fatal(err)
			}
			runs, judged, refused := 0, 0, 0
			if _, err := s.Stream(func(c *core.Computation) bool {
				runs++
				j, r := againstOracle(t, problem, verify.Check(problem, c, corr, logic.CheckOptions{}))
				judged, refused = judged+j, refused+r
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if runs != cell.Runs {
				t.Errorf("streamed %d runs, the cell checked %d", runs, cell.Runs)
			}
			if judged == 0 {
				t.Fatal("the oracle judged no restriction")
			}
			if refused > 0 && s.Problem != "readers-writers" {
				t.Errorf("the oracle refused %d restriction checks", refused)
			}
			t.Logf("%d runs: %d restriction checks judged by the oracle, %d refused", runs, judged, refused)
		})
	}
}

// TestRefutationEngineAgreement: each failing mutant is refuted at its
// pinned computation, and every restriction of every computation of it
// is judged as the oracle judges it, with genuine counterexamples.
func TestRefutationEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant explorations are slow; skipped in -short mode")
	}
	for _, r := range Refutations() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			problem, comps, corr, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			if idx, _ := verify.CheckAll(problem, comps, corr, logic.CheckOptions{}); idx < 0 {
				t.Fatal("mutant not refuted")
			}
			judged, refused := 0, 0
			for _, c := range comps {
				j, r := againstOracle(t, problem, verify.Check(problem, c, corr, logic.CheckOptions{}))
				judged, refused = judged+j, refused+r
			}
			if judged == 0 {
				t.Fatal("the oracle judged no restriction")
			}
			t.Logf("%d computations: %d restriction checks judged by the oracle, %d refused", len(comps), judged, refused)
		})
	}
}
