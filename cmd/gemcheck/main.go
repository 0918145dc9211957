// Command gemcheck reproduces the paper's small worked artifacts from
// the command line:
//
//	gemcheck access      — the Section 4 group-access table (E1)
//	gemcheck histories   — the Section 7 history / vhs enumeration (E2)
//	gemcheck rw          — the Readers/Writers variant × property matrix (E4)
//	gemcheck distributed — dbupdate convergence and Life equivalence (E8)
//
// The flags gemcheck shares with the other gem tools (-j, -cache,
// -cache-dir, -cpuprofile, -memprofile, -trace, -stats) are declared once
// in internal/cli and described in the README's "Tools" section. -j and
// the result store serve the rw matrix, whose table is the same at every
// setting of them.
//
// SIGINT (Ctrl-C) interrupts a long rw matrix cleanly: the exploration
// and the checking pool stop promptly, the command exits non-zero with
// an "interrupted (partial results)" error, and any requested profile,
// trace, and stats files are still flushed and parseable.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync/atomic"

	"gem/internal/cli"
	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/fanout"
	"gem/internal/history"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/obs"
	"gem/internal/problems/dbupdate"
	"gem/internal/problems/life"
	"gem/internal/problems/rw"
	"gem/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gemcheck:", err)
		os.Exit(1)
	}
}

// run executes gemcheck with the given arguments, writing the artifact
// to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	t := cli.New("gemcheck", stderr, cli.Checks)
	if err := t.FS.Parse(args); err != nil {
		return err
	}
	if t.FS.NArg() != 1 {
		return fmt.Errorf("usage: gemcheck [-j N] {access|histories|rw|distributed}")
	}
	return t.RunContext(func(ctx context.Context) error {
		switch t.FS.Arg(0) {
		case "access":
			return accessTable(stdout)
		case "histories":
			return histories(stdout)
		case "rw":
			// Only rw opens the store: opening trims the cache directory.
			_, cache, err := t.OpenStore()
			if err != nil {
				return err
			}
			return rwMatrix(ctx, stdout, t.J, cache)
		case "distributed":
			return distributed(stdout)
		}
		return fmt.Errorf("unknown check %q", t.FS.Arg(0))
	})
}

// prelint runs the gemlint static analyses over a problem specification
// before any exploration: a statically defective spec fails fast with
// its diagnostics instead of paying for the exhaustive enumeration.
func prelint(name string, s *spec.Spec) error {
	res := lint.Analyze(s, false)
	if errs := res.Errors(); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, d := range errs {
			msgs[i] = d.String()
		}
		return fmt.Errorf("%s specification fails lint:\n  %s", name, strings.Join(msgs, "\n  "))
	}
	return nil
}

// accessTable reproduces the paper's Section 4 allowed-enable table.
func accessTable(w io.Writer) error {
	u := core.NewUniverse()
	elems := []string{"EL1", "EL2", "EL3", "EL4", "EL5", "EL6"}
	for _, e := range elems {
		u.AddElement(e)
	}
	u.AddGroup("G1", "EL2", "EL3")
	u.AddGroup("G2", "EL4", "EL5")
	u.AddGroup("G3", "EL3", "EL4")
	u.AddGroup("G4", "EL1")
	if err := u.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(w, "An event in:   May enable any event in:")
	for _, src := range elems {
		var targets []string
		for _, dst := range elems {
			if u.Access(src, dst) {
				targets = append(targets, dst)
			}
		}
		fmt.Fprintf(w, "  %-10s   %v\n", src, targets)
	}
	return nil
}

// histories reproduces the paper's Section 7 enumeration for the diamond
// computation e1 ⊳ e2, e1 ⊳ e3, e2 ⊳ e4, e3 ⊳ e4.
func histories(w io.Writer) error {
	b := core.NewBuilder()
	ids := make([]core.EventID, 4)
	for i := range ids {
		ids[i] = b.Event(fmt.Sprintf("EL%d", i+1), "e"+fmt.Sprint(i+1), core.Params{})
	}
	b.Enable(ids[0], ids[1])
	b.Enable(ids[0], ids[2])
	b.Enable(ids[1], ids[3])
	b.Enable(ids[2], ids[3])
	c, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "histories (prefixes):")
	history.Enumerate(c, func(h history.History) bool {
		fmt.Fprintf(w, "  %s\n", h)
		return true
	})
	fmt.Fprintln(w, "maximal valid history sequences:")
	history.EnumerateComplete(c, func(s history.Sequence) bool {
		fmt.Fprintf(w, "  %s\n", s)
		return true
	})
	fmt.Fprintf(w, "linear extensions only: %d (vhs admit the simultaneous concurrent step)\n",
		history.EnumerateLinear(c, func(history.Sequence) bool { return true }))
	return nil
}

// rwMatrix checks every Readers/Writers monitor variant against the
// property set, each run as the simulator emits it (fanout.First): on
// the exploring goroutine with j = 1, on a pool of j property-checking
// workers otherwise. The aggregated booleans are order-independent, so
// the table is identical at any j. A cancelled ctx stops the
// exploration and the workers promptly; the caller reports the
// interruption. cache, when non-nil, serves property verdicts from the
// persistent store; the table is identical either way.
func rwMatrix(ctx context.Context, w io.Writer, j int, cache logic.VerdictCache) error {
	// Pre-flight: the Readers/Writers problem specification itself must
	// be statically well-formed before any variant is explored.
	if s, err := rw.ProblemSpec([]string{"r1", "r2", "w1"}, true); err != nil {
		return err
	} else if err := prelint("readers/writers", s); err != nil {
		return err
	}
	// holds evaluates one property under its own span so the trace and
	// -stats attribute engine time per property, like the restriction
	// spans in legal.Check.
	holds := func(name string, f logic.Formula, comp *core.Computation) bool {
		pctx, sp := obs.StartSpan(ctx, name)
		cx := logic.Holds(f, comp, logic.CheckOptions{Ctx: pctx, Cache: cache})
		sp.End()
		return cx == nil
	}
	workloads := []rw.Workload{{Readers: 2, Writers: 1}, {Readers: 1, Writers: 2}}
	fmt.Fprintf(w, "%-25s %6s %7s %7s %7s %8s\n", "VARIANT", "RUNS", "MUTEX", "R-PRIO", "W-PRIO", "SHARING")
	for _, v := range rw.Variants() {
		var meViol, rpViol, wpViol, sharing atomic.Bool
		total := 0
		for _, w := range workloads {
			var err error
			_, _, runs := fanout.First(ctx, j, func(yield func(*core.Computation) bool) {
				_, err = monitor.ExploreStream(rw.NewProgram(v, w), monitor.ExploreOptions{Ctx: ctx}, func(r explore.Run) bool {
					return yield(r.Comp)
				})
			}, func(_ int, comp *core.Computation) (struct{}, bool) {
				if !holds("property rw/mutual-exclusion", rw.MutualExclusionProp(), comp) {
					meViol.Store(true)
				}
				if !holds("property rw/readers-priority", rw.ReadersPriorityProp(), comp) {
					rpViol.Store(true)
				}
				if !holds("property rw/writers-priority", rw.WritersPriorityProp(), comp) {
					wpViol.Store(true)
				}
				if logic.HoldsAtFull(rw.ReadsOverlap(), comp) == nil {
					sharing.Store(true)
				}
				return struct{}{}, true
			})
			total += runs
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-25s %6d %7v %7v %7v %8v\n", v, total,
			!meViol.Load(), !rpViol.Load(), !wpViol.Load(), sharing.Load())
	}
	return nil
}

// distributed runs the two distributed applications.
func distributed(w io.Writer) error {
	cfg := dbupdate.Config{Sites: 3, Updates: []dbupdate.Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	if err := prelint("dbupdate", dbupdate.Spec(cfg)); err != nil {
		return err
	}
	runs, _, err := dbupdate.Explore(cfg, dbupdate.ExploreOptions{})
	if err != nil {
		return err
	}
	converged := 0
	for _, r := range runs {
		if finals := dbupdate.Finals(r.Comp, cfg.Sites); slices.Min(finals) == slices.Max(finals) {
			converged++
		}
	}
	fmt.Fprintf(w, "dbupdate: %d schedules explored, %d converged\n", len(runs), converged)
	if converged != len(runs) {
		return fmt.Errorf("dbupdate diverged on %d schedules", len(runs)-converged)
	}

	board := life.NewBoard(5, 5)
	board[2][1], board[2][2], board[2][3] = true, true, true // blinker
	gens := 3
	want := life.SyncRun(board.Clone(), gens)
	matched := 0
	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		run, err := life.AsyncRun(board.Clone(), gens, seed)
		if err != nil {
			return err
		}
		if run.Final.Equal(want) {
			matched++
		}
	}
	fmt.Fprintf(w, "life: %d/%d async schedules matched the synchronous reference over %d generations\n",
		matched, seeds, gens)
	if matched != seeds {
		return fmt.Errorf("life diverged")
	}
	return nil
}
