// Command gemmut runs mutation campaigns over the GEM specification and
// computation seeds: generate N deterministic mutants (drop a
// restriction, negate or weaken a formula node, widen a port, permute
// prerequisites, perturb the enable relation), check every unique mutant
// under the auto, lattice, and seq engines, delta-debug each failure to
// a 1-minimal counterexample, and persist the shrunk corpus through the
// result store.
//
//	gemmut                       — 2000 mutants, seed 0
//	gemmut -n 500 -seed 7 -j 4   — fixed-seed campaign on 4 workers
//	gemmut -replay gemmut        — re-check a persisted corpus
//
// The stdout report is a pure function of (-seed, -n): byte-identical
// across -j values and cache temperatures, so CI can diff campaigns.
// Engine disagreements, witnesses failing Verify, and shrink validation
// failures are findings — the command exits non-zero when any occur.
// -budget bounds wall time; an exceeded budget (like SIGINT) exits
// non-zero with partial results, since a truncated campaign is not
// comparable to a complete one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"gem/internal/logic"
	"gem/internal/mutate"
	"gem/internal/obs"
	"gem/internal/profiling"
	"gem/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gemmut:", err)
		os.Exit(1)
	}
}

// run executes gemmut with the given arguments, writing the campaign or
// replay report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gemmut", flag.ContinueOnError)
	n := fs.Int("n", 2000, "mutants to generate")
	seed := fs.Int64("seed", 0, "campaign seed (same seed, same campaign)")
	j := fs.Int("j", runtime.NumCPU(), "checking parallelism (1 = sequential)")
	budget := fs.Duration("budget", 0, "wall-time budget (0 = unlimited); exceeding it aborts with partial results")
	name := fs.String("name", "gemmut", "campaign name for the persisted manifest")
	replay := fs.String("replay", "", "replay the named campaign's corpus from the store instead of mutating")
	verbose := fs.Bool("v", false, "also list every shrunk failure")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	stats := fs.Bool("stats", false, "print span and counter statistics to stderr on exit")
	cacheMode := fs.String("cache", "rw", "persistent result store: off, ro or rw")
	cacheDir := fs.String("cache-dir", "", "result store directory (default $GEM_CACHE_DIR, else the user cache dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: gemmut [-n N] [-seed S] [-j N] [-budget D] [-replay NAME]")
	}
	if *trace != "" || *stats {
		obs.Enable()
	}
	// LIFO: the CPU profile stops first, then the heap profile and the
	// trace/stats are written, on every return path.
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
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	st, serr := store.OpenFromFlags(*cacheMode, *cacheDir, os.Stderr)
	if serr != nil {
		return serr
	}
	var cache logic.VerdictCache
	if st != nil {
		cache = st
	}

	if *replay != "" {
		entries, rerr := mutate.Replay(st, *replay, cache)
		if rerr != nil {
			return rerr
		}
		fmt.Fprintf(stdout, "replayed %d corpus entries of campaign %s: engines agree on all\n", entries, *replay)
		return nil
	}

	rep, cerr := mutate.Run(mutate.Config{
		N:           *n,
		Seed:        *seed,
		Parallelism: *j,
		Ctx:         ctx,
		Cache:       cache,
		Store:       st,
		Name:        *name,
	})
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted (partial results): %w", context.Cause(ctx))
	}
	if cerr != nil {
		return cerr
	}
	if *verbose {
		rep.RenderVerbose(stdout)
	} else {
		rep.Render(stdout)
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("%d finding(s): engines disagree or a witness failed validation", len(rep.Findings))
	}
	return nil
}
