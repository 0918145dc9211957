package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gem/internal/cli/clitest"
)

// timeColumn matches the per-cell TIME column, the only part of the
// report that varies between runs.
var timeColumn = regexp.MustCompile(` +[0-9]+(\.[0-9]+)?(m?s|µs) `)

// maskTime replaces the first TIME match on each line with " TIME ", as
// `sed -E 's/ +[0-9]+(\.[0-9]+)?(m?s|µs) / TIME /'` does.
func maskTime(out string) string {
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if loc := timeColumn.FindStringIndex(line); loc != nil {
			lines[i] = line[:loc[0]] + " TIME " + line[loc[1]:]
		}
	}
	return strings.Join(lines, "\n")
}

// TestMatrixGolden: the full matrix and its negative controls, checked
// from scratch, print the same report at any parallelism — cell run
// counts, verdicts and the refuted computation indices — modulo TIME.
func TestMatrixGolden(t *testing.T) {
	for _, j := range []string{"1", "4"} {
		t.Run("j"+j, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-j", j, "-cache", "off"}, &out, io.Discard); err != nil {
				t.Fatalf("gemverify -j %s: %v\n%s", j, err, out.String())
			}
			clitest.Golden(t, "matrix.golden", maskTime(out.String()))
		})
	}
}

// TestVerifiedMatrixSARIF: a fully verified matrix writes a SARIF log
// with one gemverify run and no results.
func TestVerifiedMatrixSARIF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.sarif")
	if err := run([]string{"-j", "1", "-cache", "off", "-sarif", path}, io.Discard, io.Discard); err != nil {
		t.Fatalf("gemverify -sarif: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Golden(t, "verified.sarif.golden", string(got))
}

// TestUsageErrors: malformed flags fail before any work.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "warp"},
		{"-j", "abc"},
		{"-cache", "sometimes"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("gemverify %v must fail", args)
		}
	}
}

// TestFlagSurface pins gemverify's flags and their defaults.
func TestFlagSurface(t *testing.T) {
	var usage strings.Builder
	run([]string{"-h"}, io.Discard, &usage)
	want := `-cache=rw
-cache-dir=
-cpuprofile=
-engine=auto
-j=NumCPU
-memprofile=
-sarif=
-stats=
-trace=`
	if got := clitest.Surface(usage.String()); got != want {
		t.Errorf("flags:\n%s\nwant:\n%s", got, want)
	}
}
