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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"gem/internal/analyze"
	"gem/internal/fanout"
	"gem/internal/lint"
	"gem/internal/obs"
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
	fs := flag.NewFlagSet("gemlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (alias for -format=json)")
	format := fs.String("format", "", "output format: text, json, or sarif (default text)")
	deep := fs.Bool("deep", false, "run the deep semantic analyses (GEM009-GEM012)")
	codes := fs.Bool("codes", false, "print the shared GEM code registry (code, severity, summary) and exit")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	stats := fs.Bool("stats", false, "print span and counter statistics to stderr on exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: gemlint [-deep] [-format=text|json|sarif] FILE.gem... | gemlint -codes")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *codes {
		lint.PrintRegistry(stdout)
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "":
		if *jsonOut {
			*format = "json"
		} else {
			*format = "text"
		}
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "gemlint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	if *trace != "" || *stats {
		obs.Enable()
		defer func() {
			if err := obs.Flush(*trace, *stats, stderr); err != nil {
				fmt.Fprintf(stderr, "gemlint: %v\n", err)
			}
		}()
	}

	// Analyze every file concurrently; results land in the slot of their
	// input position, so output order never depends on scheduling.
	files := fs.Args()
	results := make([]fileResult, len(files))
	fanout.First(nil, runtime.NumCPU(), fanout.Range(len(files)), func(i, _ int) (struct{}, bool) {
		results[i] = analyzeFile(files[i], *deep)
		return struct{}{}, true
	})

	exit := 0
	worsen := func(code int) {
		if code > exit {
			exit = code
		}
	}
	var all []lint.FileDiagnostic
	for i, r := range results {
		if r.errMsg != "" {
			fmt.Fprintf(stderr, "gemlint: %s\n", r.errMsg)
			worsen(2)
			continue
		}
		for _, d := range r.diags {
			all = append(all, lint.FileDiagnostic{File: files[i], Diagnostic: d})
			if d.Severity >= lint.SeverityError {
				worsen(2)
			} else {
				worsen(1)
			}
		}
	}
	lint.SortFileDiagnostics(all)

	switch *format {
	case "text":
		for _, d := range all {
			fmt.Fprintf(stdout, "%s:%s\n", d.File, d.Diagnostic)
		}
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []lint.FileDiagnostic{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(stderr, "gemlint: %v\n", err)
			worsen(2)
		}
	case "sarif":
		if err := lint.WriteSARIF(stdout, all); err != nil {
			fmt.Fprintf(stderr, "gemlint: %v\n", err)
			worsen(2)
		}
	}
	return exit
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
