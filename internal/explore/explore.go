// Package explore is the one exhaustive-exploration driver behind the
// Monitor, CSP and ADA simulators and the distributed-database
// algorithm. A language supplies only its operational semantics as a
// Machine; the driver walks every schedule depth first, applies
// invisible transitions eagerly (the partial-order reduction), and hands
// each distinct computation to the caller. Computations are distinct as
// partial orders: completed runs are deduplicated at the leaves by the
// Log's canonical key, so interleavings that differ only in the order of
// concurrent events collapse.
package explore

import (
	"context"
	"fmt"

	"gem/internal/obs"
)

// Options bounds an exploration.
type Options struct {
	// MaxRuns caps the number of distinct runs collected (0 = 100000).
	MaxRuns int
	// MaxSteps caps the steps of a single run, guarding against
	// non-terminating programs (0 = 10000).
	MaxSteps int
	// NoReduction disables the partial-order reduction, branching over
	// every enabled transition. Exponentially slower; used to validate
	// that the reduction preserves the set of computations.
	NoReduction bool
	// Ctx cancels the exploration: the DFS polls it at every node, and a
	// cancelled context aborts the walk with ctx.Err() after at most one
	// further run. nil means never cancelled.
	Ctx context.Context
}

// Machine is one language's operational semantics: a mutable state M
// (normally a pointer to the language's machine) stepped by transitions
// T, whose completed runs render as R. T stays the language's own type,
// so branches are never boxed.
type Machine[M, T, R any] interface {
	// Transitions lists the schedulable steps. Unless full is set, the
	// machine may return one invisible transition as eager (ok true): a
	// step that commutes with every other enabled transition and leads to
	// the same partial order whatever the schedule, which the driver
	// applies in place without branching. Otherwise branches are the
	// semantically distinct choices; none means the run is over. With
	// full set every enabled transition is a branch (the unreduced
	// exploration).
	Transitions(full bool) (eager T, ok bool, branches []T)
	// Apply executes one transition in place.
	Apply(t T) error
	// Clone returns an independent copy of the state.
	Clone() M
	// Key identifies the run's partial order; see Log.Key.
	Key() string
	// Finish renders a state with no transitions as a run.
	Finish() (R, error)
}

// Run enumerates the distinct runs reachable from m in deterministic DFS
// order, handing each to yield as soon as its terminal state is reached.
// It reports whether the exploration was truncated by MaxRuns. If yield
// returns false the exploration stops early with truncated == false and
// a nil error. Each call records the explore.leaves, explore.emitted and
// explore.dedup counters once.
func Run[M Machine[M, T, R], T, R any](m M, opts Options, yield func(R) bool) (truncated bool, err error) {
	if opts.MaxRuns == 0 {
		opts.MaxRuns = 100000
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10000
	}
	w := &walker[M, T, R]{opts: opts, yield: yield, seen: make(map[string]struct{})}
	if opts.Ctx != nil {
		w.done = opts.Ctx.Done()
	}
	w.dfs(m, 0)
	obs.Count("explore.leaves", int64(w.leaves))
	obs.Count("explore.emitted", int64(w.emitted))
	obs.Count("explore.dedup", int64(w.dedup))
	if w.err != nil {
		return false, w.err
	}
	return w.truncated, nil
}

// Collect is the collect-all form of a streaming exploration: it runs
// stream on p and returns every run in order, or nil on error.
func Collect[P, R any](stream func(P, Options, func(R) bool) (bool, error), p P, opts Options) ([]R, bool, error) {
	var runs []R
	truncated, err := stream(p, opts, func(r R) bool {
		runs = append(runs, r)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return runs, truncated, nil
}

// walker is the state of one exploration.
type walker[M Machine[M, T, R], T, R any] struct {
	opts  Options
	yield func(R) bool
	done  <-chan struct{}
	seen  map[string]struct{}

	leaves, emitted, dedup int
	truncated, stopped     bool
	err                    error
}

// dfs explores from m, which has taken steps transitions so far.
func (w *walker[M, T, R]) dfs(m M, steps int) {
	select {
	case <-w.done:
		w.err = w.opts.Ctx.Err()
		return
	default:
	}
	var branches []T
	for {
		if steps > w.opts.MaxSteps {
			w.err = fmt.Errorf("explore: run exceeded %d steps (non-terminating program?)", w.opts.MaxSteps)
			return
		}
		eager, ok, ts := m.Transitions(w.opts.NoReduction)
		if !ok {
			branches = ts
			break
		}
		if err := m.Apply(eager); err != nil {
			w.err = err
			return
		}
		steps++
	}
	if len(branches) == 0 {
		w.leaf(m)
		return
	}
	for _, t := range branches {
		next := m.Clone()
		if err := next.Apply(t); err != nil {
			w.err = err
			return
		}
		w.dfs(next, steps+1)
		if w.truncated || w.stopped || w.err != nil {
			return
		}
	}
}

// leaf emits m's run unless its partial order was already emitted.
func (w *walker[M, T, R]) leaf(m M) {
	w.leaves++
	key := m.Key()
	if _, dup := w.seen[key]; dup {
		w.dedup++
		return
	}
	w.seen[key] = struct{}{}
	run, err := m.Finish()
	if err != nil {
		w.err = err
		return
	}
	w.emitted++
	if !w.yield(run) {
		w.stopped = true
		return
	}
	if w.emitted >= w.opts.MaxRuns {
		w.truncated = true
	}
}
