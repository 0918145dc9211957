// Command gemgo statically extracts GEM models from real Go packages and
// reports the Go-specific concurrency diagnostics GEM013–GEM020: channel
// operations with no possible partner, lock-ordering inversions,
// goroutines that can block forever, double locks of non-reentrant
// mutexes, and — from the race pass over the extracted partial order —
// data races on shared variables, closes racing sends, and WaitGroup
// Adds racing Waits. The extraction turns each root function into a GEM
// model — goroutines are elements, synchronization and shared-variable
// operations are events, control flow and channel/lock pairing are the
// enable edges — so the same verification machinery gemlint and
// gemverify use runs on real code unchanged, and may-happen-in-parallel
// is just event incomparability.
//
// Usage:
//
//	gemgo [-dump-spec] [-format=text|json|sarif] [-j N] PACKAGES...
//	gemgo -codes
//
// A package argument is a directory, or a directory followed by /... to
// walk the tree (skipping testdata and vendor, like the go tool).
// -dump-spec prints each extracted model — elements, restrictions, the
// computation — instead of running the diagnostics. -codes prints the
// shared GEM001–GEM020 code registry and exits.
//
// Exit status: 0 when every package is clean, 1 when warnings were
// reported but no errors, 2 on errors — including packages that fail to
// parse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"gem/internal/fanout"
	"gem/internal/gofront"
	"gem/internal/lint"
	"gem/internal/obs"
	"gem/internal/race"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// pkgResult is the outcome of analyzing one package directory.
type pkgResult struct {
	res    *gofront.Result
	errMsg string // load failure (exit 2)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemgo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (alias for -format=json)")
	format := fs.String("format", "", "output format: text, json, or sarif (default text)")
	dump := fs.Bool("dump-spec", false, "print the extracted GEM model for each root function instead of diagnosing")
	codes := fs.Bool("codes", false, "print the shared GEM code registry (code, severity, summary) and exit")
	jobs := fs.Int("j", runtime.NumCPU(), "number of packages to analyze in parallel")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	stats := fs.Bool("stats", false, "print span and counter statistics to stderr on exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: gemgo [-dump-spec] [-format=text|json|sarif] [-j N] PACKAGES... | gemgo -codes")
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
		fmt.Fprintf(stderr, "gemgo: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	if *trace != "" || *stats {
		obs.Enable()
		defer func() {
			if err := obs.Flush(*trace, *stats, stderr); err != nil {
				fmt.Fprintf(stderr, "gemgo: %v\n", err)
			}
		}()
	}

	dirs, err := gofront.ExpandPatterns(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "gemgo: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "gemgo: no packages matched")
		return 2
	}

	// Analyze packages concurrently; results land in the slot of their
	// input position so output never depends on scheduling.
	results := make([]pkgResult, len(dirs))
	fanout.First(nil, *jobs, fanout.Range(len(dirs)), func(i, _ int) (struct{}, bool) {
		results[i] = analyzePackage(dirs[i])
		return struct{}{}, true
	})

	exit := 0
	worsen := func(code int) {
		if code > exit {
			exit = code
		}
	}
	var all []lint.FileDiagnostic
	for _, r := range results {
		if r.errMsg != "" {
			fmt.Fprintf(stderr, "gemgo: %s\n", r.errMsg)
			worsen(2)
			continue
		}
		if *dump {
			for _, m := range r.res.Models {
				gofront.DumpSpec(stdout, m)
			}
			continue
		}
		for _, d := range r.res.Diags {
			all = append(all, d)
			if d.Severity >= lint.SeverityError {
				worsen(2)
			} else {
				worsen(1)
			}
		}
	}
	if *dump {
		return exit
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
			fmt.Fprintf(stderr, "gemgo: %v\n", err)
			worsen(2)
		}
	case "sarif":
		if err := lint.WriteSARIFAs(stdout, "gemgo", all); err != nil {
			fmt.Fprintf(stderr, "gemgo: %v\n", err)
			worsen(2)
		}
	}
	return exit
}

func analyzePackage(dir string) pkgResult {
	res, err := gofront.AnalyzeDir(dir)
	if err != nil {
		return pkgResult{errMsg: fmt.Sprintf("%s: %v", dir, err)}
	}
	// The race pass runs per model, after extraction; its findings merge
	// into the package's diagnostic stream.
	for _, m := range res.Models {
		res.Diags = append(res.Diags, race.Check(m)...)
	}
	lint.SortFileDiagnostics(res.Diags)
	return pkgResult{res: res}
}
