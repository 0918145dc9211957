package check

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/logic"
	"gem/internal/spec"
	"gem/internal/store"
	"gem/internal/verify"
)

// TestMatrixAllVerified runs the full Section 11 matrix: three languages
// × three problems, all verified (experiment E7).
func TestMatrixAllVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow; skipped in -short mode")
	}
	var buf bytes.Buffer
	if _, err := RunMatrixCells(&buf); err != nil {
		t.Fatalf("matrix failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	t.Logf("\n%s", out)
	if got := strings.Count(out, "verified"); got != 9 {
		t.Errorf("verified cells = %d, want 9:\n%s", got, out)
	}
	for _, problem := range []string{"one-slot-buffer", "bounded-buffer", "readers-writers"} {
		if !strings.Contains(out, problem) {
			t.Errorf("missing problem %s", problem)
		}
	}
	for _, lang := range Languages() {
		if !strings.Contains(out, string(lang)) {
			t.Errorf("missing language %s", lang)
		}
	}
}

func TestScenarioCells(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow; skipped in -short mode")
	}
	// Distinct computations per cell; bench/testdata/expected.json
	// records the same answers for the benchmark.
	wantRuns := map[string]int{
		"one-slot-buffer/monitor": 5, "bounded-buffer/monitor": 10, "readers-writers/monitor": 72,
		"one-slot-buffer/csp": 1, "bounded-buffer/csp": 4, "readers-writers/csp": 22,
		"one-slot-buffer/ada": 1, "bounded-buffer/ada": 4, "readers-writers/ada": 22,
	}
	for _, s := range Matrix() {
		s := s
		name := s.Problem + "/" + string(s.Language)
		t.Run(name, func(t *testing.T) {
			cell := s.Run()
			if !cell.Verified {
				t.Fatalf("cell failed: %v", cell.Err)
			}
			if cell.Runs != wantRuns[name] {
				t.Errorf("explored %d computations, want %d", cell.Runs, wantRuns[name])
			}
		})
	}
}

// TestWarmStoreSkipsChecking: checking the readers-writers/monitor
// cell's computations a second time against the store the first pass
// filled serves every one from the whole-check sat layer: one hit each,
// no miss, no write, and no history lattice built. This is what makes a
// warm rerun of an unchanged spec cheap (experiment E14).
func TestWarmStoreSkipsChecking(t *testing.T) {
	var sc Scenario
	for _, s := range Matrix() {
		if s.Problem == "readers-writers" && s.Language == Monitor {
			sc = s
		}
	}
	problem, corr, err := sc.Setup()
	if err != nil {
		t.Fatal(err)
	}
	var comps []*core.Computation
	if truncated, err := sc.Stream(func(c *core.Computation) bool {
		comps = append(comps, c)
		return true
	}); err != nil || truncated {
		t.Fatalf("exploration: truncated=%v err=%v", truncated, err)
	}
	if len(comps) != 72 {
		t.Fatalf("explored %d computations, want 72", len(comps))
	}
	st, err := store.Open(t.TempDir(), store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if idx, res := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Cache: st}); idx >= 0 {
		t.Fatalf("cold pass: computation %d: %v", idx, res.Error())
	}
	cold := st.Stats()
	builds := history.LatticeBuilds()
	if idx, res := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Cache: st}); idx >= 0 {
		t.Fatalf("warm pass: computation %d: %v", idx, res.Error())
	}
	warm := st.Stats()
	if d := history.LatticeBuilds() - builds; d != 0 {
		t.Errorf("warm pass built %d history lattices, want 0", d)
	}
	hits, misses, writes := warm.Hits-cold.Hits, warm.Misses-cold.Misses, warm.Writes-cold.Writes
	if hits != 72 || misses != 0 || writes != 0 {
		t.Errorf("warm pass: %d hits, %d misses, %d writes; want 72, 0 and 0", hits, misses, writes)
	}
}

// TestRefutationsAllRefuted: the negative controls must each be refuted.
func TestRefutationsAllRefuted(t *testing.T) {
	var buf bytes.Buffer
	if err := RunRefutations(&buf); err != nil {
		t.Fatalf("refutations: %v\n%s", err, buf.String())
	}
	t.Logf("\n%s", buf.String())
	if got := strings.Count(buf.String(), "refuted as expected"); got != 2 {
		t.Errorf("refuted controls = %d, want 2:\n%s", got, buf.String())
	}
}

// TestRefutationInterrupted: a control whose check is cancelled before
// its refuting computation reports the interruption, not a broken
// matrix. CheckAll returns -1 both when nothing fails and when it gives
// up, so only the context tells the two apart.
func TestRefutationInterrupted(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		control := Refutations()[1]
		cancelling := Refutation{Name: control.Name, Build: func() (*spec.Spec, []*core.Computation, verify.Correspondence, error) {
			defer cancel()
			return control.Build()
		}}
		var buf bytes.Buffer
		err := runRefutations(&buf, []Refutation{cancelling, control}, Options{Parallelism: par, Ctx: ctx})
		if err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Errorf("-j %d: error = %v, want an interruption", par, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-j %d: an interrupted control printed a verdict:\n%s", par, buf.String())
		}
	}
}
