package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gem/internal/cli/clitest"
)

const cleanSpec = `SPEC clean
ELEMENT a
  EVENTS Ping
  RESTRICTIONS
    "ping": (FORALL x: Ping) occurred(x) ;
END
`

const warnSpec = `SPEC warn
ELEMENT a
  EVENTS Ping Pong
  RESTRICTIONS
    "ping": (FORALL x: Ping) occurred(x) ;
END
`

const errSpec = `SPEC bad
ELEMENT a
  EVENTS Ping
  RESTRICTIONS
    "unbound": (FORALL x: Ping) x |> y ;
END
`

func writeSpec(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"clean.gem", cleanSpec, 0},
		{"warn.gem", warnSpec, 1},
		{"err.gem", errSpec, 2},
		{"noparse.gem", "SPEC ( nope", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSpec(t, tc.name, tc.src)
			var out, errb strings.Builder
			if got := run([]string{path}, &out, &errb); got != tc.want {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, out.String(), errb.String())
			}
		})
	}
}

func TestRunNoArgsIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if got := run(nil, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("expected usage on stderr, got: %s", errb.String())
	}
}

// TestTraceWriteFailureExits2: a -trace file that cannot be written is
// an error (exit 2), even when every file is clean.
func TestTraceWriteFailureExits2(t *testing.T) {
	clean := writeSpec(t, "clean.gem", cleanSpec)
	trace := filepath.Join(t.TempDir(), "missing", "trace.json")
	var out, errb strings.Builder
	if got := run([]string{"-trace", trace, clean}, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", got, errb.String())
	}
	if !strings.Contains(errb.String(), "trace.json") {
		t.Errorf("stderr does not name the trace file: %s", errb.String())
	}
}

// TestFlagSurface pins gemlint's flags and their defaults.
func TestFlagSurface(t *testing.T) {
	var usage strings.Builder
	run([]string{"-h"}, io.Discard, &usage)
	want := `-codes=
-deep=
-format=
-json=
-stats=
-trace=`
	if got := clitest.Surface(usage.String()); got != want {
		t.Errorf("flags:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{filepath.Join(t.TempDir(), "absent.gem")}, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
}

func TestRunJSON(t *testing.T) {
	bad := writeSpec(t, "bad.gem", errSpec)
	var out, errb strings.Builder
	if got := run([]string{"-json", bad}, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", got, errb.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("expected at least one diagnostic in JSON output")
	}
	if diags[0].Code != "GEM008" || diags[0].Severity != "error" || diags[0].File != bad {
		t.Errorf("unexpected first diagnostic: %+v", diags[0])
	}
}

func TestRunJSONCleanIsEmptyArray(t *testing.T) {
	clean := writeSpec(t, "clean.gem", cleanSpec)
	var out, errb strings.Builder
	if got := run([]string{"-json", clean}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", got, errb.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("expected empty JSON array, got: %s", out.String())
	}
}

const redundantSpec = `SPEC dup
ELEMENT a
  EVENTS
    Go
END

ELEMENT b
  EVENTS
    Go
END

RESTRICTION "first": PREREQ(a.Go -> b.Go) ;
RESTRICTION "second": PREREQ(a.Go -> b.Go) ;
`

// TestRunDeep: the deep analyses run only under -deep; the redundant
// spec is clean for the shallow linter but warns under GEM012.
func TestRunDeep(t *testing.T) {
	path := writeSpec(t, "dup.gem", redundantSpec)

	var out, errb strings.Builder
	if got := run([]string{path}, &out, &errb); got != 0 {
		t.Fatalf("shallow lint exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", got, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	if got := run([]string{"-deep", path}, &out, &errb); got != 1 {
		t.Fatalf("-deep exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", got, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "GEM012") {
		t.Fatalf("-deep output missing GEM012:\n%s", out.String())
	}
}

// TestRunSARIF: -format=sarif emits a valid SARIF 2.1.0 log with a rule
// and result for the diagnostic that fired.
func TestRunSARIF(t *testing.T) {
	path := writeSpec(t, "dup.gem", redundantSpec)
	var out, errb strings.Builder
	if got := run([]string{"-deep", "-format=sarif", path}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("output is not valid SARIF JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "gemlint" {
		t.Errorf("driver name = %q, want gemlint", r.Tool.Driver.Name)
	}
	if len(r.Results) == 0 || r.Results[0].RuleID != "GEM012" {
		t.Errorf("expected a GEM012 result, got %+v", r.Results)
	}
	found := false
	for _, rule := range r.Tool.Driver.Rules {
		if rule.ID == "GEM012" {
			found = true
		}
	}
	if !found {
		t.Error("SARIF rules missing GEM012")
	}
}

// TestRunDeterministic: linting the same file set twice (exercising the
// parallel fan-out) must produce byte-identical output in every format,
// with diagnostics ordered by file, position, then code.
func TestRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for name, src := range map[string]string{
		"a_dup.gem":  redundantSpec,
		"b_err.gem":  errSpec,
		"c_warn.gem": warnSpec,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	for _, format := range []string{"text", "json", "sarif"} {
		t.Run(format, func(t *testing.T) {
			args := append([]string{"-deep", "-format=" + format}, files...)
			var first string
			for i := 0; i < 2; i++ {
				var out, errb strings.Builder
				run(args, &out, &errb)
				if i == 0 {
					first = out.String()
				} else if out.String() != first {
					t.Errorf("output differs between runs:\n--- first ---\n%s--- second ---\n%s", first, out.String())
				}
			}
			if format == "text" {
				a := strings.Index(first, "a_dup.gem")
				b := strings.Index(first, "b_err.gem")
				c := strings.Index(first, "c_warn.gem")
				if !(a < b && b < c) {
					t.Errorf("diagnostics not in file order (a=%d b=%d c=%d):\n%s", a, b, c, first)
				}
			}
		})
	}
}
