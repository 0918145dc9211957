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

func runQuiet(args ...string) error { return run(args, io.Discard, io.Discard) }

func TestRunOnShippedSpec(t *testing.T) {
	if err := runQuiet("../../examples/specs/readerswriters.gem"); err != nil {
		t.Fatalf("gemc on the shipped spec: %v", err)
	}
}

func TestRunUsage(t *testing.T) {
	if err := runQuiet(); err == nil {
		t.Error("no arguments must fail")
	} else if !strings.Contains(err.Error(), "usage:") {
		t.Errorf("error must carry the usage message, got: %v", err)
	}
	if err := runQuiet("a", "b"); err == nil {
		t.Error("two file arguments must fail")
	}
	if err := runQuiet("-nonsense", "a"); err == nil {
		t.Error("unknown flag must fail")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := runQuiet("/nonexistent.gem"); err == nil {
		t.Error("missing file must fail")
	}
}

func TestRunParseError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.gem")
	if err := os.WriteFile(bad, []byte("ELEMENT X EVENTS"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(bad); err == nil {
		t.Error("parse error must be reported")
	}
}

func TestRunValidationError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "invalid.gem")
	src := "GROUP G MEMBERS(ghost) END\n"
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(bad); err == nil {
		t.Error("validation error must be reported")
	}
}

func TestRunFormatRoundTrip(t *testing.T) {
	if err := runQuiet("-format", "../../examples/specs/readerswriters.gem"); err != nil {
		t.Fatalf("gemc -format: %v", err)
	}
}

func TestRunOnBoundedBufferSpec(t *testing.T) {
	if err := runQuiet("../../examples/specs/boundedbuffer.gem"); err != nil {
		t.Fatalf("gemc on the bounded-buffer spec: %v", err)
	}
}

// TestFlagsComposeInAnyOrder is the regression test for the historical
// ad-hoc argument handling, which recognized -format only as the first
// argument. Flags must now compose in any order, including after the
// file argument. A value flag may be detached from its value on either
// side of the file: gemc once moved flag-shaped arguments ahead of the
// file, so `gemc spec.gem -trace out.json` wrote the trace over the spec.
func TestFlagsComposeInAnyOrder(t *testing.T) {
	src, err := os.ReadFile("../../examples/specs/boundedbuffer.gem")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "boundedbuffer.gem")
	if err := os.WriteFile(file, src, 0o644); err != nil {
		t.Fatal(err)
	}
	before := filepath.Join(dir, "before.json")
	after := filepath.Join(dir, "after.json")
	orders := [][]string{
		{"-format", "-lint", file},
		{"-lint", "-format", file},
		{file, "-format", "-lint"},
		{"-lint", file, "-format"},
		{file, "-format", "-lint", "-trace", after},
		{"-format", "-trace", before, "-lint", file},
	}
	var want string
	for i, args := range orders {
		var b strings.Builder
		err := run(args, &b, io.Discard)
		if got, rerr := os.ReadFile(file); rerr != nil || string(got) != string(src) {
			t.Fatalf("run(%v) overwrote the spec file (read error %v)", args, rerr)
		}
		if err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if i == 0 {
			want = b.String()
			if !strings.Contains(want, "ELEMENT") {
				t.Fatalf("-format output missing source, got:\n%s", want)
			}
			continue
		}
		if b.String() != want {
			t.Errorf("run(%v) output differs from run(%v)", args, orders[0])
		}
	}
	for _, trace := range []string{before, after} {
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		if !json.Valid(data) || !strings.Contains(string(data), "traceEvents") {
			t.Errorf("%s is not a trace-event file:\n%s", trace, data)
		}
	}
}

// TestFlagSurface pins gemc's flags and their defaults.
func TestFlagSurface(t *testing.T) {
	err := runQuiet()
	if err == nil {
		t.Fatal("no arguments must fail with the usage")
	}
	want := `-deep=
-format=
-lint=
-stats=
-trace=`
	if got := clitest.Surface(err.Error()); got != want {
		t.Errorf("flags:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunLintFailsOnDefectiveSpec: -lint must fail the compile when the
// analyzer reports errors, even though the spec parses and validates.
func TestRunLintFailsOnDefectiveSpec(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "cyclic.gem")
	src := `ELEMENT a EVENTS Go END
ELEMENT b EVENTS Go END
RESTRICTION "fwd": PREREQ(a.Go -> b.Go) ;
RESTRICTION "bwd": PREREQ(b.Go -> a.Go) ;
`
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"-lint", bad}, &b, io.Discard)
	if err == nil {
		t.Fatal("-lint must fail on a prerequisite cycle")
	}
	if !strings.Contains(b.String(), "GEM004") {
		t.Errorf("diagnostics must name GEM004, got:\n%s", b.String())
	}
	// Without -lint the same file still compiles (the defect is a lint
	// finding, not a structural validation error).
	if err := runQuiet(bad); err != nil {
		t.Errorf("without -lint the spec must still compile: %v", err)
	}
}

// TestRunLintCleanSpec: the shipped example specs must be lint-clean.
func TestRunLintCleanSpec(t *testing.T) {
	for _, f := range []string{
		"../../examples/specs/readerswriters.gem",
		"../../examples/specs/boundedbuffer.gem",
	} {
		if err := runQuiet("-lint", f); err != nil {
			t.Errorf("gemc -lint %s: %v", f, err)
		}
	}
}
