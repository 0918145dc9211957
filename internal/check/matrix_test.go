package check

import (
	"bytes"
	"strings"
	"testing"
)

// TestMatrixAllVerified runs the full Section 11 matrix: three languages
// × three problems, all verified (experiment E7).
func TestMatrixAllVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow; skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunMatrix(&buf); err != nil {
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
