package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gem/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files from current lint output")

// deepFixture reports whether the fixture exercises the deep analyzer:
// the GEM009–GEM012 defect specs and every clean_* lookalike (which must
// stay clean under the deep analyses, not just the shallow ones).
func deepFixture(name string) bool {
	if strings.HasPrefix(name, "clean_") {
		return true
	}
	switch name[:strings.Index(name, "_")] {
	case "gem009", "gem010", "gem011", "gem012":
		return true
	}
	return false
}

// fixtureDiags runs the analysis a fixture is named for and returns the
// rendered diagnostics.
func fixtureDiags(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.AnalyzeSource(string(src), deepFixture(strings.TrimSuffix(filepath.Base(path), ".gem")))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	diags := res.Diags
	var sb strings.Builder
	lint.Print(&sb, filepath.Base(path), diags)
	return sb.String()
}

// TestGolden runs the linter over every spec in testdata/ and compares
// the rendered diagnostics against the sibling .golden file. Defective
// fixtures (gemNNN_*) must surface the code they are named for; clean_*
// fixtures superficially resemble a deep defect and must produce no
// diagnostics at all. Regenerate with:
// go test ./internal/lint -run Golden -update
func TestGolden(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.gem"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) < 16 {
		t.Fatalf("expected at least 16 fixtures in testdata/, found %d", len(fixtures))
	}
	for _, path := range fixtures {
		name := strings.TrimSuffix(filepath.Base(path), ".gem")
		t.Run(name, func(t *testing.T) {
			got := fixtureDiags(t, path)

			if strings.HasPrefix(name, "clean_") {
				if got != "" {
					t.Errorf("clean fixture %s produced diagnostics:\n%s", path, got)
				}
			} else {
				// Every defective fixture is named after the code it must
				// surface.
				wantCode := strings.ToUpper(name[:strings.Index(name, "_")])
				if !strings.Contains(got, wantCode) {
					t.Errorf("fixture %s did not surface %s; diagnostics:\n%s", path, wantCode, got)
				}
			}

			goldenPath := strings.TrimSuffix(path, ".gem") + ".golden"
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
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestDeepExtendsShallow pins what a deep run adds over every fixture: a
// shallow run reports no GEM009–GEM012, and a deep run reports exactly
// the shallow findings plus the deep ones, in canonical order.
func TestDeepExtendsShallow(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.gem"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		shallow, err := lint.AnalyzeSource(string(src), false)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		deep, err := lint.AnalyzeSource(string(src), true)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if found := deepDiags(shallow); len(found) != 0 {
			t.Errorf("%s: a shallow run reported deep findings: %v", path, found)
		}
		// Merge as a caller of two separate analyses would: the shallow
		// findings, then the deep ones, sorted canonically.
		var merged []lint.FileDiagnostic
		for _, d := range append(append([]lint.Diagnostic(nil), shallow.Diags...), deepDiags(deep)...) {
			merged = append(merged, lint.FileDiagnostic{Diagnostic: d})
		}
		lint.SortFileDiagnostics(merged)
		want := make([]lint.Diagnostic, len(merged))
		for i, d := range merged {
			want[i] = d.Diagnostic
		}
		if !slices.Equal(deep.Diags, want) {
			t.Errorf("%s: deep run is not the shallow findings plus the deep ones in canonical order\n got: %v\nwant: %v",
				path, deep.Diags, want)
		}
	}
}
