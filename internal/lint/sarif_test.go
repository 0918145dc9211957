package lint_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gem/internal/lint"
)

// TestSARIFCorpus deep-analyzes the whole fixture corpus and golden-tests
// the combined SARIF 2.1.0 log: one run, rules for every code that fired,
// results in the canonical (file, position, code, subject) order.
// Regenerate with: go test ./internal/lint -run SARIF -update
func TestSARIFCorpus(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.gem"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(fixtures)
	var all []lint.FileDiagnostic
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lint.AnalyzeSource(string(src), true)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, d := range res.Diags {
			all = append(all, lint.FileDiagnostic{File: filepath.Base(path), Diagnostic: d})
		}
	}

	var sb strings.Builder
	if err := lint.WriteSARIFAs(&sb, "gemlint", all); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	for _, code := range []string{"GEM009", "GEM010", "GEM011", "GEM012"} {
		if !strings.Contains(got, `"id": "`+code+`"`) {
			t.Errorf("SARIF corpus missing rule %s", code)
		}
	}

	goldenPath := filepath.Join("testdata", "corpus.sarif.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("SARIF corpus mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSARIFZeroPosition is the regression test for the invalid
// "startLine": 0 region: a diagnostic with an unknown position (such as
// the group-containment-cycle finding, which no single line owns) must
// carry a location without any region, and a known line with an unknown
// column must omit startColumn — SARIF 2.1.0 regions are 1-based.
func TestSARIFZeroPosition(t *testing.T) {
	diags := []lint.FileDiagnostic{
		{File: "cycle.gem", Diagnostic: lint.Diagnostic{Code: lint.CodeDanglingElement,
			Severity: lint.SeverityError, Subject: "group structure",
			Message: "group containment cycle through g1"}},
		{File: "cycle.gem", Diagnostic: lint.Diagnostic{Code: lint.CodeDeadDecl,
			Severity: lint.SeverityWarning, Subject: "element a", Message: "unused",
			Pos: lint.Pos{Line: 7}}},
	}
	var sb strings.Builder
	if err := lint.WriteSARIFAs(&sb, "gemlint", diags); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if strings.Contains(got, `"startLine": 0`) {
		t.Errorf("zero-position diagnostic produced an invalid startLine 0 region:\n%s", got)
	}
	if strings.Contains(got, `"startColumn": 0`) {
		t.Errorf("unknown column produced an invalid startColumn 0:\n%s", got)
	}
	if !strings.Contains(got, `"uri": "cycle.gem"`) {
		t.Errorf("zero-position diagnostic lost its artifact location:\n%s", got)
	}
	if !strings.Contains(got, `"startLine": 7`) {
		t.Errorf("positioned diagnostic lost its region:\n%s", got)
	}

	// The corpus golden must stay free of zero regions too: the fixture
	// set includes gem001_group_cycle.gem, whose GEM001 finding has no
	// position.
	golden, err := os.ReadFile(filepath.Join("testdata", "corpus.sarif.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(golden), `"startLine": 0`) {
		t.Error("corpus.sarif.golden contains an invalid startLine 0 region")
	}
}

// TestSARIFDeterministic renders the same diagnostics twice and requires
// byte-identical output.
func TestSARIFDeterministic(t *testing.T) {
	diags := []lint.FileDiagnostic{
		{File: "a.gem", Diagnostic: lint.Diagnostic{Code: lint.CodePrereqCycle,
			Severity: lint.SeverityError, Subject: "restriction \"r\" of a", Message: "cycle",
			Pos: lint.Pos{Line: 3, Col: 1}}},
		{File: "b.gem", Diagnostic: lint.Diagnostic{Code: lint.CodeDeadDecl,
			Severity: lint.SeverityWarning, Subject: "element x", Message: "unused"}},
	}
	var one, two strings.Builder
	if err := lint.WriteSARIFAs(&one, "gemlint", diags); err != nil {
		t.Fatal(err)
	}
	if err := lint.WriteSARIFAs(&two, "gemlint", diags); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("WriteSARIFAs output is not deterministic")
	}
	if !strings.Contains(one.String(), `"version": "2.1.0"`) {
		t.Error("SARIF output missing version 2.1.0")
	}
}
