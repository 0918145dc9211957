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
	"fmt"
	"io"
	"os"

	"gem/internal/cli"
	"gem/internal/fanout"
	"gem/internal/gofront"
	"gem/internal/lint"
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
	t := cli.New("gemgo", stderr, cli.Diagnostics|cli.Jobs)
	dump := t.FS.Bool("dump-spec", false, "print the extracted GEM model for each root function instead of diagnosing")
	t.FS.Usage = func() {
		fmt.Fprintln(stderr, "usage: gemgo [-dump-spec] [-format=text|json|sarif] [-j N] PACKAGES... | gemgo -codes")
		t.FS.PrintDefaults()
	}
	return t.Diagnose(args, stdout, func() int {
		dirs, err := gofront.ExpandPatterns(t.FS.Args())
		if err != nil {
			t.Warn(err)
			return 2
		}
		if len(dirs) == 0 {
			t.Warn("no packages matched")
			return 2
		}
		// Analyze packages concurrently; results land in the slot of
		// their input position so output never depends on scheduling.
		results := make([]pkgResult, len(dirs))
		fanout.First(nil, t.J, fanout.Range(len(dirs)), func(i, _ int) (struct{}, bool) {
			results[i] = analyzePackage(dirs[i])
			return struct{}{}, true
		})
		status := 0
		var all []lint.FileDiagnostic
		for _, r := range results {
			if r.errMsg != "" {
				t.Warn(r.errMsg)
				status = 2
				continue
			}
			if *dump {
				for _, m := range r.res.Models {
					gofront.DumpSpec(stdout, m)
				}
				continue
			}
			all = append(all, r.res.Diags...)
		}
		if *dump {
			return status
		}
		return t.Report(stdout, all, status)
	})
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
