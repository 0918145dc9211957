// Command gemverify runs the paper's Section 11 verification matrix: the
// Monitor, CSP, and ADA solutions of the One-Slot Buffer, Bounded Buffer,
// and Reader's-Priority Readers/Writers problems, each exhaustively
// explored and checked against its GEM problem specification with the
// Section 9 sat methodology. Exits non-zero if any cell fails.
//
// The -j flag (default NumCPU) sets the checking parallelism: each run
// is checked as the simulators emit it, on the exploring goroutine at
// -j1 and on a pool of N sat-check workers at -j N (fanout.First), and
// every check of a computation shares its memoized history lattice.
// Any -j reports the same verdicts, run counts and first-failure
// computation indices.
//
// The -engine flag selects the temporal evaluation engine: auto (the
// default) evaluates every temporal restriction with the lattice
// fixpoint engine — which now covers the full restriction language and
// extracts its own counterexamples from the history lattice — and falls
// back to sequence enumeration only when the engine's bounds are
// inconclusive; lattice forces the fixpoint engine (same fallback rule,
// with fallbacks observable on the engine.lattice.fallback -stats
// counter); seq is the historical sequence engine, kept as the
// agreement-test oracle. All engines report the same verdicts; witness
// shapes may differ, but every counterexample is a genuine failing
// history. -cpuprofile and -memprofile write pprof profiles for
// performance work; -trace writes a Chrome trace-event JSON file (load
// in chrome://tracing or Perfetto) and -stats prints span/counter
// statistics to stderr.
//
// The -cache flag (off, ro, or rw; default rw) controls the persistent
// result store behind incremental checking: restriction verdicts, guard
// vectors, whole-check sat records, and history-lattice artifacts are
// keyed by content hashes of the canonical spec and the computation
// fingerprint, so a repeat run against an unchanged spec serves verdicts
// from disk instead of re-evaluating. -cache-dir overrides the location
// (default $GEM_CACHE_DIR, else the user cache dir); GEM_CACHE_BUDGET
// bounds the cache size in bytes. Verdicts, counterexample renderings,
// and exit codes are identical with the cache on, off, warm, or cold.
//
// -sarif writes the matrix outcome as a SARIF log: one GEM017 result per
// failed cell, an empty result set for a fully verified matrix.
//
// SIGINT (Ctrl-C) interrupts the run cleanly: exploration and checking
// stop promptly, the command exits non-zero with an "interrupted"
// error, and any requested profile, trace, and stats files are still
// flushed — so a too-long run can be interrupted and profiled anyway.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"gem/internal/check"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/profiling"
	"gem/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gemverify:", err)
		os.Exit(1)
	}
}

// run executes gemverify with the given arguments, writing the matrix
// and refutation tables to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gemverify", flag.ContinueOnError)
	j := fs.Int("j", runtime.NumCPU(), "checking parallelism (1 = sequential engine)")
	engineName := fs.String("engine", "auto", "temporal evaluation engine: auto, lattice or seq")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	stats := fs.Bool("stats", false, "print span and counter statistics to stderr on exit")
	cacheMode := fs.String("cache", "rw", "persistent result store: off, ro or rw")
	cacheDir := fs.String("cache-dir", "", "result store directory (default $GEM_CACHE_DIR, else the user cache dir)")
	sarif := fs.String("sarif", "", "write the matrix outcome as SARIF to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := logic.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	if *trace != "" || *stats {
		obs.Enable()
	}
	// Registered before the CPU profile starts so the LIFO defer order
	// stops the profile first, then writes the heap profile and flushes
	// the trace/stats — all of them run on every return path, including
	// a failing matrix and a context cancelled mid-matrix.
	defer func() {
		if ferr := obs.Flush(*trace, *stats, os.Stderr); ferr != nil && err == nil {
			err = ferr
		}
	}()
	defer func() {
		if herr := profiling.WriteHeap(*memprofile); herr != nil && err == nil {
			err = herr
		}
	}()
	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()

	st, err := store.OpenFromFlags(*cacheMode, *cacheDir, os.Stderr)
	if err != nil {
		return err
	}

	opts := check.Options{Parallelism: *j, Engine: engine, Ctx: ctx}
	if st != nil {
		opts.Cache = st
	}
	cells, merr := check.RunMatrixCells(stdout, opts)
	// The SARIF log is written even for a failing matrix — the failures
	// are exactly what it exists to report.
	if serr := writeSARIF(*sarif, cells); serr != nil && merr == nil {
		merr = serr
	}
	if merr != nil {
		return merr
	}
	fmt.Fprintln(stdout, "\nnegative controls (must be refuted):")
	return check.RunRefutations(stdout, opts)
}

// writeSARIF renders the matrix cells as a SARIF log: one GEM017 result
// per failed cell (the cell name as the subject, the failure — including
// any counterexample rendering — as the message), none for a verified
// matrix. The output is deterministic for deterministic cell outcomes,
// so a warm-cache run emits a byte-identical log.
func writeSARIF(path string, cells []check.Cell) error {
	if path == "" {
		return nil
	}
	var diags []lint.FileDiagnostic
	for _, cell := range cells {
		if cell.Verified || cell.Err == nil {
			continue
		}
		diags = append(diags, lint.FileDiagnostic{Diagnostic: lint.Diagnostic{
			Code:     lint.CodeSatRefuted,
			Severity: lint.SeverityError,
			Subject:  cell.Scenario.Problem + "/" + string(cell.Scenario.Language),
			Message:  cell.Err.Error(),
		}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := lint.WriteSARIFAs(f, "gemverify", diags)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
