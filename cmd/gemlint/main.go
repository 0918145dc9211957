// Command gemlint runs the static well-formedness and consistency
// analyses of internal/lint over GEM specification source files and
// reports position-annotated diagnostics. With -deep it additionally
// runs the whole-specification semantic analyses of internal/analyze
// (GEM009–GEM012: contradiction, deadlock, unreachability, redundancy).
//
// Usage:
//
//	gemlint [-deep] [-format=text|json|sarif] FILE.gem...
//	gemlint -codes
//
// -codes prints the shared GEM001–GEM020 code registry (one line per
// code: code, default severity, summary) and exits. Text output is one
// finding per line:
//
//	file.gem:12:3: GEM004 error: restriction "r" of spec: ...
//
// Files are analyzed in parallel; diagnostics are reported in a
// deterministic order (file, position, code, subject) regardless of
// which analysis finishes first, so repeated runs are byte-identical.
//
// Exit status: 0 when every file is clean (or has only informational
// output), 1 when warnings were reported but no errors, 2 on errors —
// including files that fail to parse.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"gem/internal/analyze"
	"gem/internal/cli"
	"gem/internal/fanout"
	"gem/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fileResult is the outcome of analyzing one input file.
type fileResult struct {
	diags  []lint.Diagnostic
	errMsg string // read or parse failure (exit 2)
}

func run(args []string, stdout, stderr io.Writer) int {
	t := cli.New("gemlint", stderr, cli.Diagnostics)
	deep := t.FS.Bool("deep", false, "run the deep semantic analyses (GEM009-GEM012)")
	t.FS.Usage = func() {
		fmt.Fprintln(stderr, "usage: gemlint [-deep] [-format=text|json|sarif] FILE.gem... | gemlint -codes")
		t.FS.PrintDefaults()
	}
	return t.Diagnose(args, stdout, func() int {
		// Analyze every file concurrently; results land in the slot of
		// their input position, so output order never depends on
		// scheduling.
		files := t.FS.Args()
		results := make([]fileResult, len(files))
		fanout.First(nil, runtime.NumCPU(), fanout.Range(len(files)), func(i, _ int) (struct{}, bool) {
			results[i] = analyzeFile(files[i], *deep)
			return struct{}{}, true
		})
		status := 0
		var all []lint.FileDiagnostic
		for i, r := range results {
			if r.errMsg != "" {
				t.Warn(r.errMsg)
				status = 2
				continue
			}
			for _, d := range r.diags {
				all = append(all, lint.FileDiagnostic{File: files[i], Diagnostic: d})
			}
		}
		return t.Report(stdout, all, status)
	})
}

func analyzeFile(file string, deep bool) fileResult {
	src, err := os.ReadFile(file)
	if err != nil {
		return fileResult{errMsg: err.Error()}
	}
	if deep {
		res, err := analyze.AnalyzeSource(string(src))
		if err != nil {
			return fileResult{errMsg: fmt.Sprintf("%s: %v", file, err)}
		}
		return fileResult{diags: res.All()}
	}
	res, err := lint.AnalyzeSource(string(src))
	if err != nil {
		return fileResult{errMsg: fmt.Sprintf("%s: %v", file, err)}
	}
	return fileResult{diags: res.Diags}
}
