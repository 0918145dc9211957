// Package explore is the one exhaustive-exploration driver behind the
// Monitor, CSP and ADA simulators and the distributed-database
// algorithm. A language supplies only its operational semantics as a
// Machine; the driver walks the schedules depth first and hands each run,
// a computation and a deadlock flag, to the caller. Two partial-order
// reductions keep the walk small: invisible transitions run eagerly
// without branching, and sleep sets (Godefroid 1996) prune a branch
// whenever an earlier path of the walk already covered an equivalent
// interleaving, so each trace is completed once instead of once per
// interleaving. Different traces are different computations unless a
// machine took a choice its events do not record; the machine marks such
// runs, and the driver compares those alone at the leaves, so no two
// runs it emits have the same computation and the same deadlock flag.
package explore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"

	"gem/internal/core"
	"gem/internal/obs"
)

// Options bounds an exploration.
type Options struct {
	// MaxRuns caps the number of runs emitted (0 = 100000).
	MaxRuns int
	// MaxSteps caps the steps of a single run, guarding against
	// non-terminating programs (0 = 10000).
	MaxSteps int
	// NoReduction disables both partial-order reductions, eager steps and
	// sleep sets, branching over every enabled transition, and the
	// comparison of marked runs, so it emits every schedule it completes
	// and a computation comes out once per interleaving. Exponentially
	// slower; used to validate that the reduced walk emits each
	// computation exactly once.
	NoReduction bool
	// Ctx cancels the exploration: the DFS polls it at every node, and a
	// cancelled context aborts the walk with ctx.Err() after at most one
	// further run. nil means never cancelled.
	Ctx context.Context
}

// Run is one complete or deadlocked execution: its computation, and
// whether it ended in deadlock, the one fact of its end state that a
// verdict reads.
type Run struct {
	Comp     *core.Computation
	Deadlock bool
}

// Key renders r's computation as Key does, with its deadlock flag: a
// choice the events do not record can end two runs of one computation
// differently, and both must come out. Walk compares the runs a Machine
// marks by this key.
func (r Run) Key() string {
	k := Key(r.Comp)
	if r.Deadlock {
		k += "\ndeadlock"
	}
	return k
}

// Machine is one language's operational semantics: a mutable state M
// (normally a pointer to the language's machine) stepped by transitions
// T. T stays the language's own type, so branches are never boxed; it is
// comparable so that a sleeping branch can be recognised among a later
// state's branches. A transition value must therefore name the same step
// for as long as its process does not move. A machine embeds a Log, from
// which the driver builds each run's computation.
//
// Walk compares only the runs a machine marks. Sleep sets complete at
// most one run per trace of Independent (Godefroid 1996), and the
// machine takes its eager steps in a fixed order, so two runs of the
// reduced walk give one computation only through a choice the events do
// not record: which of two steps a process took, or in which order two
// dependent steps ran, with the same events either way. Most choices are
// recorded: a grant is the lock's next Acq event, a match or an accept is
// a pair of events at shared elements, and an external operation is an
// event at its element. A machine marks each run that takes a choice
// that may not be (Log.Unrecorded). It decides by what every run of the
// same computation sees alike, such as the choosing process's own state,
// so that all the runs of a repeated computation are marked. Walk emits
// the first marked run of each Run.Key and drops the later ones; it
// emits unmarked runs without comparing them.
type Machine[M any, T comparable] interface {
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
	// reaches the same state and the same computation, and neither
	// disables the other. A wrong true answer loses computations. A false
	// answer for two steps whose order the computation records costs only
	// pruning; for two whose order it does not record, the walk completes
	// that computation once per order, so the machine must mark those
	// runs (see above).
	Independent(a, b T) bool
	// Apply executes one transition in place.
	Apply(t T) error
	// Clone returns an independent copy of the state: stepping either
	// one never changes the other's state. A machine shares its Log's
	// name table with its clones (see Log.Clone), so a machine and its
	// clones must be stepped on one goroutine; only the computations
	// they build may cross goroutines.
	Clone() M
	// Deadlocked reports whether a state with no transitions left a
	// process blocked or unfinished. The driver asks once per leaf,
	// before it builds and keys the run, so a machine may mark the run
	// there on what only its end state shows.
	Deadlocked() bool
	// eventLog returns the machine's Log, which it has by embedding one.
	eventLog() *Log
}

// Walk enumerates the runs reachable from m in deterministic DFS order,
// handing each to yield as soon as its terminal state is reached. It
// reports whether the exploration was truncated by MaxRuns, that is
// whether a run beyond the first MaxRuns was reached. If yield returns
// false the exploration stops early with truncated == false and a nil
// error. Each call records the explore.leaves, explore.emitted,
// explore.dedup and explore.pruned counters once.
//
// Walk consumes m: a node of the walk steps its own state along the last
// branch it explores and clones it for each earlier one, so a node with
// k branches to explore clones k−1 times. The caller must not use m
// after the call.
//
// Sleep sets never change which runs come out, or where: a path is
// pruned only when an equivalent path precedes it in DFS order, so the
// first interleaving of every partial order is still reached, and each
// run comes out in the order, and with the event IDs, in which the walk
// without sleep sets first reaches its computation.
func Walk[M Machine[M, T], T comparable](m M, opts Options, yield func(Run) bool) (truncated bool, err error) {
	if opts.MaxRuns == 0 {
		opts.MaxRuns = 100000
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10000
	}
	w := &walker[M, T]{opts: opts, yield: yield, seen: make(map[[sha256.Size]byte]bool)}
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
func Collect[P any](stream func(P, Options, func(Run) bool) (bool, error), p P, opts Options) ([]Run, bool, error) {
	var runs []Run
	truncated, err := stream(p, opts, func(r Run) bool {
		runs = append(runs, r)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return runs, truncated, nil
}

// walker is the state of one exploration.
type walker[M Machine[M, T], T comparable] struct {
	opts  Options
	yield func(Run) bool
	done  <-chan struct{}
	seen  map[[sha256.Size]byte]bool // digests of emitted marked runs' keys

	leaves, emitted, dedup, pruned int
	truncated, stopped             bool
	err                            error
}

// dfs explores from m, which has taken steps transitions so far. sleep
// holds the transitions enabled at m that need no exploring from here:
// each was taken at an ancestor before the branch leading here, and
// commutes with every step since, so any path starting with it is
// equivalent to one already walked. The slice belongs to this call.
func (w *walker[M, T]) dfs(m M, steps int, sleep []T) {
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
	// The branches are distinct, so the ones asleep now are the ones
	// never explored from here: the last branch awake now is the last
	// explored. It steps m itself, which nothing reads after it, and
	// takes over m's sleep set; each earlier one steps a clone.
	last := len(branches) - 1
	for last >= 0 && slices.Contains(sleep, branches[last]) {
		last--
	}
	if last < 0 {
		w.pruned++
		return
	}
	for i, t := range branches[:last+1] {
		if slices.Contains(sleep, t) {
			continue
		}
		next, dst := m, sleep[:0]
		if i < last {
			next, dst = m.Clone(), make([]T, 0, len(sleep))
		}
		var child []T
		if !w.opts.NoReduction {
			child = independentOf(m, sleep, t, dst)
		}
		if err := next.Apply(t); err != nil {
			w.err = err
			return
		}
		w.dfs(next, steps+1, child)
		if w.truncated || w.stopped || w.err != nil || i == last {
			return
		}
		if !w.opts.NoReduction {
			sleep = append(sleep, t)
		}
	}
}

// independentOf appends to dst the members of sleep that are independent
// of t in m's state; dst may alias sleep.
func independentOf[M Machine[M, T], T comparable](m M, sleep []T, t T, dst []T) []T {
	for _, u := range sleep {
		if m.Independent(u, t) {
			dst = append(dst, u)
		}
	}
	return dst
}

// leaf builds m's run and emits it, unless m is marked and a run of the
// same Run.Key was already emitted. Under NoReduction no run counts as
// marked.
func (w *walker[M, T]) leaf(m M) {
	w.leaves++
	deadlock := m.Deadlocked()
	log := m.eventLog()
	comp, err := log.Build()
	if err != nil {
		w.err = fmt.Errorf("explore: building a run: %w", err)
		return
	}
	run := Run{Comp: comp, Deadlock: deadlock}
	// The walk remembers a marked run by the SHA-256 of its key, at 32
	// bytes each instead of a string as long as the run.
	marked := log.unrecorded && !w.opts.NoReduction
	var digest [sha256.Size]byte
	if marked {
		digest = sha256.Sum256([]byte(run.Key()))
		if w.seen[digest] {
			w.dedup++
			return
		}
	}
	if w.emitted >= w.opts.MaxRuns {
		w.truncated = true
		return
	}
	if marked {
		w.seen[digest] = true
	}
	w.emitted++
	if !w.yield(run) {
		w.stopped = true
	}
}
