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
	"fmt"
	"io"
	"os"

	"gem/internal/cli"
	"gem/internal/mutate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gemmut:", err)
		os.Exit(1)
	}
}

// run executes gemmut with the given arguments, writing the campaign or
// replay report to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	t := cli.New("gemmut", stderr, cli.Checks)
	n := t.FS.Int("n", 2000, "mutants to generate")
	seed := t.FS.Int64("seed", 0, "campaign seed (same seed, same campaign)")
	budget := t.FS.Duration("budget", 0, "wall-time budget (0 = unlimited); exceeding it aborts with partial results")
	name := t.FS.String("name", "gemmut", "campaign name for the persisted manifest")
	replay := t.FS.String("replay", "", "replay the named campaign's corpus from the store instead of mutating")
	verbose := t.FS.Bool("v", false, "also list every shrunk failure")
	if err := t.FS.Parse(args); err != nil {
		return err
	}
	if t.FS.NArg() != 0 {
		return fmt.Errorf("usage: gemmut [-n N] [-seed S] [-j N] [-budget D] [-replay NAME]")
	}
	// mutate.Config reads N <= 0 as its default, so a typo would
	// silently run a full campaign.
	if *n < 1 {
		return fmt.Errorf("usage: -n %d: want at least 1 mutant", *n)
	}
	return t.RunContext(func(ctx context.Context) error {
		if *budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *budget)
			defer cancel()
		}
		st, cache, err := t.OpenStore()
		if err != nil {
			return err
		}
		if *replay != "" {
			entries, err := mutate.Replay(st, *replay, cache)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "replayed %d corpus entries of campaign %s: engines agree on all\n", entries, *replay)
			return nil
		}
		rep, err := mutate.Run(mutate.Config{
			N:           *n,
			Seed:        *seed,
			Parallelism: t.J,
			Ctx:         ctx,
			Cache:       cache,
			Store:       st,
			Name:        *name,
		})
		// An exceeded -budget cancels only this context, not the one
		// the harness checks.
		if err := cli.Interrupted(ctx, err); err != nil {
			return err
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
	})
}
