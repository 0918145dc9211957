// Package explore is the one exhaustive-exploration driver behind the
// Monitor, CSP and ADA simulators and the distributed-database
// algorithm. A language supplies only its operational semantics as a
// Machine; the driver walks the schedules depth first and hands each
// distinct computation to the caller. Two partial-order reductions keep
// the walk small: invisible transitions run eagerly without branching,
// and sleep sets (Godefroid 1996) prune a branch whenever an earlier
// path of the walk already covered an equivalent interleaving, so each
// trace is reached about once instead of once per interleaving.
// Computations are distinct as partial orders: completed runs are still
// deduplicated at the leaves by the Log's canonical key, which is
// coarser than trace equivalence.
package explore

import (
	"context"
	"fmt"
	"slices"

	"gem/internal/obs"
)

// Options bounds an exploration.
type Options struct {
	// MaxRuns caps the number of distinct runs collected (0 = 100000).
	MaxRuns int
	// MaxSteps caps the steps of a single run, guarding against
	// non-terminating programs (0 = 10000).
	MaxSteps int
	// NoReduction disables both partial-order reductions, eager steps and
	// sleep sets, branching over every enabled transition. Exponentially
	// slower; used to validate that the reductions preserve the set of
	// computations.
	NoReduction bool
	// Ctx cancels the exploration: the DFS polls it at every node, and a
	// cancelled context aborts the walk with ctx.Err() after at most one
	// further run. nil means never cancelled.
	Ctx context.Context
}

// Machine is one language's operational semantics: a mutable state M
// (normally a pointer to the language's machine) stepped by transitions
// T, whose completed runs render as R. T stays the language's own type,
// so branches are never boxed; it is comparable so that a sleeping
// branch can be recognised among a later state's branches. A transition
// value must therefore name the same step for as long as its process
// does not move.
type Machine[M any, T comparable, R any] interface {
	// Transitions lists the schedulable steps. Unless full is set, the
	// machine may return one invisible transition as eager (ok true): a
	// step that commutes with every other enabled transition and leads to
	// the same partial order whatever the schedule, which the driver
	// applies in place without branching. Otherwise branches are the
	// semantically distinct choices; none means the run is over. With
	// full set every enabled transition is a branch (the unreduced
	// exploration).
	Transitions(full bool) (eager T, ok bool, branches []T)
	// Independent reports whether a and b, both enabled in the current
	// state, are steps of different processes that commute: either order
	// reaches the same state and the same Key, and neither disables the
	// other. It may answer false whenever in doubt; a false answer costs
	// only pruning, a wrong true answer loses computations.
	Independent(a, b T) bool
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
// It reports whether the exploration was truncated by MaxRuns, that is
// whether a distinct run beyond the first MaxRuns was reached. If yield
// returns false the exploration stops early with truncated == false and
// a nil error. Each call records the explore.leaves, explore.emitted,
// explore.dedup and explore.pruned counters once.
//
// Sleep sets never change what is emitted: a path is pruned only when
// an equivalent path precedes it in DFS order, so the first interleaving
// of every partial order is still reached, and the runs come out in the
// same order, with the same event IDs, as they would without sleep sets.
func Run[M Machine[M, T, R], T comparable, R any](m M, opts Options, yield func(R) bool) (truncated bool, err error) {
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
	w.dfs(m, 0, nil)
	obs.Count("explore.leaves", int64(w.leaves))
	obs.Count("explore.emitted", int64(w.emitted))
	obs.Count("explore.dedup", int64(w.dedup))
	obs.Count("explore.pruned", int64(w.pruned))
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
type walker[M Machine[M, T, R], T comparable, R any] struct {
	opts  Options
	yield func(R) bool
	done  <-chan struct{}
	seen  map[string]struct{}

	leaves, emitted, dedup, pruned int
	truncated, stopped             bool
	err                            error
}

// dfs explores from m, which has taken steps transitions so far. sleep
// holds the transitions enabled at m that need no exploring from here:
// each was taken at an ancestor before the branch leading here, and
// commutes with every step since, so any path starting with it is
// equivalent to one already walked. The slice belongs to this call.
func (w *walker[M, T, R]) dfs(m M, steps int, sleep []T) {
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
		sleep = independentOf(m, sleep, eager, sleep[:0])
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
	explored := false
	for _, t := range branches {
		if slices.Contains(sleep, t) {
			continue
		}
		explored = true
		var child []T
		if !w.opts.NoReduction {
			child = independentOf(m, sleep, t, make([]T, 0, len(sleep)))
		}
		next := m.Clone()
		if err := next.Apply(t); err != nil {
			w.err = err
			return
		}
		w.dfs(next, steps+1, child)
		if w.truncated || w.stopped || w.err != nil {
			return
		}
		if !w.opts.NoReduction {
			sleep = append(sleep, t)
		}
	}
	if !explored {
		w.pruned++
	}
}

// independentOf appends to dst the members of sleep that are independent
// of t in m's state; dst may alias sleep.
func independentOf[M Machine[M, T, R], T comparable, R any](m M, sleep []T, t T, dst []T) []T {
	for _, u := range sleep {
		if m.Independent(u, t) {
			dst = append(dst, u)
		}
	}
	return dst
}

// leaf emits m's run unless its partial order was already emitted.
func (w *walker[M, T, R]) leaf(m M) {
	w.leaves++
	key := m.Key()
	if _, dup := w.seen[key]; dup {
		w.dedup++
		return
	}
	if w.emitted >= w.opts.MaxRuns {
		w.truncated = true
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
	}
}
