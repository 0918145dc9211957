package explore_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/explore/exploretest"
	"gem/internal/obs"
)

// toy is a machine of independent processes; process i takes total[i]
// steps. A step emits an event at the process's own element, so every
// interleaving yields the same partial order — unless shared says the
// step is at the one shared element x, where the order of steps is part
// of the computation. With eager set, the first enabled step is reported
// as invisible.
type toy struct {
	explore.Log
	total, left []int
	shared      func(proc, k int) bool // is process proc's k-th step at x?
	eager       bool
	// dependent makes every two steps dependent, so the walk completes
	// every interleaving; mark marks each run Unrecorded.
	dependent, mark bool
	// first is the process that took the first step, -1 before any;
	// with deadlockFirst0 the runs whose first step was process 0's
	// report a deadlock, which no event records.
	first          int
	deadlockFirst0 bool
	// dangling makes every step name an enabler that is never emitted,
	// so the log does not build.
	dangling bool
	calls    *callLog
}

// callLog counts a toy's Deadlocked and Clone calls across all its
// clones, and the Deadlocked calls on states with steps left.
type callLog struct{ reports, unfinished, clones int }

// step is a toy transition: the index of the process that moves.
type step int

func newToy(steps ...int) *toy {
	return &toy{Log: explore.NewLog(len(steps)), total: steps, left: append([]int(nil), steps...), first: -1, calls: &callLog{}}
}

// allShared puts every step at the shared element.
func allShared(int, int) bool { return true }

// elem is the element of process p's next step.
func (m *toy) elem(p step) string {
	if m.shared != nil && m.shared(int(p), m.total[p]-m.left[p]) {
		return "x"
	}
	return fmt.Sprintf("p%d", p)
}

func (m *toy) Transitions(full bool) (step, bool, []step) {
	var ts []step
	for i, n := range m.left {
		if n == 0 {
			continue
		}
		if m.eager && !full {
			return step(i), true, nil
		}
		ts = append(ts, step(i))
	}
	return 0, false, ts
}

// Independent: steps commute exactly when they are at different
// elements (two processes' private elements, or one private and x).
func (m *toy) Independent(a, b step) bool { return !m.dependent && m.elem(a) != m.elem(b) }

func (m *toy) Apply(s step) error {
	if m.mark {
		m.Unrecorded()
	}
	if m.first < 0 {
		m.first = int(s)
	}
	enabler := -1
	if m.dangling {
		enabler = 1 << 20
	}
	m.Emit(int(s), m.elem(s), "Step", core.NewParams(core.P("proc", core.Int(int64(s)))), enabler)
	m.left[s]--
	return nil
}

func (m *toy) Clone() *toy {
	m.calls.clones++
	next := *m
	next.Log = m.Log.Clone()
	next.left = append([]int(nil), m.left...)
	return &next
}

func (m *toy) Deadlocked() bool {
	m.calls.reports++
	for _, n := range m.left {
		if n > 0 {
			m.calls.unfinished++
		}
	}
	return m.deadlockFirst0 && m.first == 0
}

func collect(m *toy, opts explore.Options) ([]explore.Run, bool, error) {
	return explore.Collect(explore.Walk[*toy, step], m, opts)
}

// counters runs f with a fresh obs collector and returns the explore.*
// counters it recorded.
func counters(f func()) map[string]int64 {
	obs.Enable()
	defer obs.Disable()
	f()
	got := obs.Snapshot().Counters
	return map[string]int64{
		"leaves": got["explore.leaves"], "emitted": got["explore.emitted"], "dedup": got["explore.dedup"],
		"pruned": got["explore.pruned"],
	}
}

func TestInterleavingsOfOnePartialOrderCollapse(t *testing.T) {
	for _, tc := range []struct {
		opts explore.Options
		want map[string]int64
	}{
		// Sleep sets reach the one partial order of p0;p0 ∥ p1 once: the
		// two other interleavings are pruned before their leaves.
		{explore.Options{}, map[string]int64{"leaves": 1, "emitted": 1, "dedup": 0, "pruned": 2}},
		// Unreduced, all three interleavings reach a leaf, and each is
		// emitted.
		{explore.Options{NoReduction: true}, map[string]int64{"leaves": 3, "emitted": 3, "dedup": 0, "pruned": 0}},
	} {
		var runs []explore.Run
		var err error
		var truncated bool
		got := counters(func() { runs, truncated, err = collect(newToy(2, 1), tc.opts) })
		if err != nil || truncated {
			t.Fatalf("err=%v truncated=%v", err, truncated)
		}
		if int64(len(runs)) != tc.want["emitted"] {
			t.Fatalf("NoReduction=%v: got %d runs, want %d", tc.opts.NoReduction, len(runs), tc.want["emitted"])
		}
		for _, r := range runs {
			if r.Key() != runs[0].Key() {
				t.Fatalf("NoReduction=%v: interleavings of one partial order differ:\n%s\n%s", tc.opts.NoReduction, r.Comp, runs[0].Comp)
			}
		}
		c := runs[0].Comp
		p0 := c.EventsOf(core.Ref("p0", "Step"))
		p1 := c.EventsOf(core.Ref("p1", "Step"))
		if !c.Temporal(p0[0], p0[1]) || !c.Concurrent(p0[0], p1[0]) {
			t.Error("process chaining wrong: want p0 ordered, p0 ∥ p1")
		}
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("NoReduction=%v: explore.%s = %d, want %d", tc.opts.NoReduction, name, got[name], want)
			}
		}
	}
}

// TestSleepSetsKeepTheEmittedSequence: on toys mixing shared and private
// steps, sleep sets emit each computation of the unreduced exploration
// once, in the order and with the event IDs of its first occurrence
// there, while reaching fewer leaves.
func TestSleepSetsKeepTheEmittedSequence(t *testing.T) {
	patterns := map[string]func(proc, k int) bool{
		"alternating":  func(p, k int) bool { return (p+k)%2 == 0 },
		"first-only":   func(_, k int) bool { return k == 0 },
		"proc-0-and-2": func(p, _ int) bool { return p != 1 },
		"last-two":     func(p, k int) bool { return k >= 1 && p < 3 },
	}
	for name, shared := range patterns {
		t.Run(name, func(t *testing.T) {
			explored := func(opts explore.Options) ([]explore.Run, map[string]int64) {
				m := newToy(2, 1, 2, 1)
				m.shared = shared
				var runs []explore.Run
				var err error
				got := counters(func() { runs, _, err = collect(m, opts) })
				if err != nil {
					t.Fatal(err)
				}
				return runs, got
			}
			reduced, cr := explored(explore.Options{})
			full, cf := explored(explore.Options{NoReduction: true})
			if err := exploretest.SameRuns(reduced, full, true); err != nil {
				t.Fatal(err)
			}
			if cr["leaves"] >= cf["leaves"] || cr["pruned"] == 0 {
				t.Errorf("sleep sets pruned nothing: reduced %v, unreduced %v", cr, cf)
			}
		})
	}
}

// TestMarkedRunsAreCompared: when Independent calls every two steps
// dependent, the walk completes all three interleavings of p0;p0 ∥ p1,
// one computation. Unmarked, each comes out, as Machine warns; marked,
// the first comes out and the other two are dropped, unless NoReduction
// is set.
func TestMarkedRunsAreCompared(t *testing.T) {
	for _, tc := range []struct {
		mark bool
		opts explore.Options
		want map[string]int64
	}{
		{false, explore.Options{}, map[string]int64{"leaves": 3, "emitted": 3, "dedup": 0, "pruned": 0}},
		{true, explore.Options{}, map[string]int64{"leaves": 3, "emitted": 1, "dedup": 2, "pruned": 0}},
		{true, explore.Options{NoReduction: true}, map[string]int64{"leaves": 3, "emitted": 3, "dedup": 0, "pruned": 0}},
	} {
		m := newToy(2, 1)
		m.dependent, m.mark = true, tc.mark
		var runs []explore.Run
		got := counters(func() {
			var err error
			if runs, _, err = collect(m, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("mark=%v NoReduction=%v: explore.%s = %d, want %d", tc.mark, tc.opts.NoReduction, name, got[name], want)
			}
		}
		if int64(m.calls.reports) != got["leaves"] {
			t.Errorf("mark=%v: Deadlocked called %d times at %d leaves", tc.mark, m.calls.reports, got["leaves"])
		}
		if tc.mark && !tc.opts.NoReduction && runs[0].Comp.String() != firstInterleaving(t) {
			t.Errorf("the first interleaving was not the one emitted:\n%s", runs[0].Comp)
		}
	}
}

// firstInterleaving is the first interleaving of p0;p0 ∥ p1 in DFS order.
func firstInterleaving(t *testing.T) string {
	runs, _, err := collect(newToy(2, 1), explore.Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	return runs[0].Comp.String()
}

// TestPrunedNodesAreNeverFinished: a node whose branches are all asleep
// is not a leaf; Deadlocked is asked once per leaf, always on a terminal
// state, and here every leaf is an emitted run.
func TestPrunedNodesAreNeverFinished(t *testing.T) {
	m := newToy(2, 1, 1)
	var runs []explore.Run
	got := counters(func() {
		var err error
		if runs, _, err = collect(m, explore.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got["pruned"] == 0 {
		t.Fatalf("no pruned node: %v", got)
	}
	if m.calls.reports != len(runs) || m.calls.unfinished != 0 {
		t.Errorf("Deadlocked called %d times (%d on unfinished states), want %d, 0",
			m.calls.reports, m.calls.unfinished, len(runs))
	}
	if got["leaves"] != int64(len(runs)) {
		t.Errorf("explore.leaves = %d, want one per run (%d)", got["leaves"], len(runs))
	}
}

func TestEagerStepsDoNotBranch(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	m := newToy(2, 1)
	m.eager = true
	if runs, _, err := collect(m, explore.Options{}); err != nil || len(runs) != 1 {
		t.Fatalf("runs=%d err=%v, want 1 run", len(runs), err)
	}
	if got := obs.Snapshot().Counters["explore.leaves"]; got != 1 {
		t.Errorf("reduced exploration reached %d leaves, want 1", got)
	}
	obs.Enable()
	m = newToy(2, 1)
	m.eager = true
	if runs, _, err := collect(m, explore.Options{NoReduction: true}); err != nil || len(runs) != 3 {
		t.Fatalf("runs=%d err=%v, want a run per interleaving, 3", len(runs), err)
	}
	if got := obs.Snapshot().Counters["explore.leaves"]; got != 3 {
		t.Errorf("unreduced exploration reached %d leaves, want 3", got)
	}
}

func TestDistinctOrdersAtASharedElement(t *testing.T) {
	m := newToy(1, 1, 1)
	m.shared = allShared
	runs, _, err := collect(m, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range runs {
		keys[r.Key()] = true
	}
	if len(runs) != 6 || len(keys) != 6 {
		t.Fatalf("got %d runs of %d computations, want 3! = 6 of each", len(runs), len(keys))
	}
}

func TestMaxRunsTruncates(t *testing.T) {
	m := newToy(1, 1, 1)
	m.shared = allShared
	runs, truncated, err := collect(m, explore.Options{MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(runs) != 2 {
		t.Fatalf("runs=%d truncated=%v, want 2 runs, truncated", len(runs), truncated)
	}
}

// TestMaxRunsReachedExactlyIsNotTruncation: a program with exactly
// MaxRuns distinct runs loses nothing, so it is not truncated.
func TestMaxRunsReachedExactlyIsNotTruncation(t *testing.T) {
	m := newToy(1, 1)
	m.shared = allShared
	runs, truncated, err := collect(m, explore.Options{MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(runs) != 2 {
		t.Fatalf("runs=%d truncated=%v, want 2 runs, not truncated", len(runs), truncated)
	}
}

func TestYieldFalseStops(t *testing.T) {
	m := newToy(1, 1, 1)
	m.shared = allShared
	n := 0
	truncated, err := explore.Walk[*toy, step](m, explore.Options{}, func(explore.Run) bool {
		n++
		return false
	})
	if err != nil || truncated || n != 1 {
		t.Fatalf("yielded %d, truncated=%v, err=%v; want 1, false, nil", n, truncated, err)
	}
}

func TestMaxStepsIsAnError(t *testing.T) {
	_, _, err := collect(newToy(5), explore.Options{MaxSteps: 3})
	if err == nil || !strings.Contains(err.Error(), "exceeded 3 steps") {
		t.Fatalf("err = %v, want the step-cap error", err)
	}
	m := newToy(5)
	m.eager = true
	if _, _, err := collect(m, explore.Options{MaxSteps: 3}); err == nil {
		t.Fatal("eager steps must count against MaxSteps")
	}
}

// TestBuildErrorReachesCaller: a leaf whose log does not build stops the
// walk with the Build error, and nothing is emitted.
func TestBuildErrorReachesCaller(t *testing.T) {
	m := newToy(1, 1)
	m.dangling = true
	runs, truncated, err := collect(m, explore.Options{})
	if err == nil || !strings.Contains(err.Error(), "references unknown event") || truncated || len(runs) != 0 {
		t.Fatalf("runs=%d truncated=%v err=%v, want the Build error", len(runs), truncated, err)
	}
}

// TestMarkedRunsKeepTheirDeadlockFlag: the toy marks its runs but has no
// key of its own, and one computation of three dependent steps ends
// deadlocked when process 0 stepped first, which no event records. The
// walk completes that computation six times; it emits one deadlocked
// and one finished run and drops the repeats of either. Unreduced, all
// six come out.
func TestMarkedRunsKeepTheirDeadlockFlag(t *testing.T) {
	for _, tc := range []struct {
		opts      explore.Options
		deadlocks []bool
		dedup     int64
	}{
		{explore.Options{}, []bool{true, false}, 4},
		{explore.Options{NoReduction: true}, []bool{true, true, false, false, false, false}, 0},
	} {
		m := newToy(1, 1, 1)
		m.dependent, m.mark, m.deadlockFirst0 = true, true, true
		var runs []explore.Run
		got := counters(func() {
			var err error
			if runs, _, err = collect(m, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		var deadlocks []bool
		for _, r := range runs {
			deadlocks = append(deadlocks, r.Deadlock)
			if explore.Key(r.Comp) != explore.Key(runs[0].Comp) {
				t.Fatalf("NoReduction=%v: runs of different computations:\n%s\n%s", tc.opts.NoReduction, r.Comp, runs[0].Comp)
			}
		}
		if fmt.Sprint(deadlocks) != fmt.Sprint(tc.deadlocks) || got["leaves"] != 6 || got["dedup"] != tc.dedup {
			t.Errorf("NoReduction=%v: deadlock flags %v, counters %v; want %v, 6 leaves, dedup %d",
				tc.opts.NoReduction, deadlocks, got, tc.deadlocks, tc.dedup)
		}
		if m.calls.reports != 6 {
			t.Errorf("NoReduction=%v: Deadlocked called %d times at 6 leaves", tc.opts.NoReduction, m.calls.reports)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := collect(newToy(1, 1), explore.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	m := newToy(1, 1, 1)
	m.shared = allShared
	n := 0
	_, err := explore.Walk[*toy, step](m, explore.Options{Ctx: ctx}, func(explore.Run) bool {
		n++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) || n != 1 {
		t.Fatalf("cancelled mid-walk: yielded %d, err = %v; want 1, context.Canceled", n, err)
	}
}

func TestLogCloneIsIndependent(t *testing.T) {
	a := explore.NewLog(1)
	for i := 0; i < 3; i++ { // leaves spare capacity behind a's events
		a.Emit(0, "p", "A", core.Params{})
	}
	b := a.Clone()
	a.Emit(0, "p", "B", core.Params{})
	b.Emit(0, "p", "C", core.Params{})
	for _, tc := range []struct {
		log  *explore.Log
		last string
	}{{&a, "B"}, {&b, "C"}} {
		c, err := tc.log.Build()
		if err != nil {
			t.Fatal(err)
		}
		if c.NumEvents() != 4 || c.Event(3).Class() != tc.last {
			t.Fatalf("clones share emitted events: want A A A %s, got\n%s", tc.last, c)
		}
	}
}

// TestWalkClonesAllButTheLastBranch: a node with k awake branches
// clones its machine k−1 times and steps it along the last one, and a
// branch asleep costs no clone. The walk is a tree whose nodes are its
// leaves, its pruned nodes and the k ≥ 1 nodes, so that is leaves +
// pruned − 1 clones in all; a walk that cloned for every branch would
// make one more per k ≥ 1 node. The runs, their order and the counters
// are pinned at what the walk that cloned every branch produced.
func TestWalkClonesAllButTheLastBranch(t *testing.T) {
	want := map[string]struct {
		leaves, emitted, dedup, pruned int64
		digest                         string
	}{
		"p0;p0 ∥ p1":                     {1, 1, 0, 2, "7d8555a8e2bba244"},
		"p0;p0 ∥ p1 unreduced":           {3, 3, 0, 0, "ec9c92d1b6147479"},
		"three steps at x":               {6, 6, 0, 0, "d1e30abf5bd38f9b"},
		"three steps at x unreduced":     {6, 6, 0, 0, "d1e30abf5bd38f9b"},
		"alternating":                    {2, 2, 0, 24, "39ec31a4c5e6ca6c"},
		"alternating unreduced":          {180, 180, 0, 0, "5c5e09655bf347a8"},
		"eager":                          {1, 1, 0, 0, "6e8a769d8f43a024"},
		"eager unreduced":                {12, 12, 0, 0, "79c1383d25082a80"},
		"dependent and marked":           {12, 1, 11, 0, "6e8a769d8f43a024"},
		"dependent and marked unreduced": {12, 12, 0, 0, "79c1383d25082a80"},
	}
	for _, tc := range []struct {
		name string
		toy  func() *toy
	}{
		{"p0;p0 ∥ p1", func() *toy { return newToy(2, 1) }},
		{"three steps at x", func() *toy {
			m := newToy(1, 1, 1)
			m.shared = allShared
			return m
		}},
		{"alternating", func() *toy {
			m := newToy(2, 1, 2, 1)
			m.shared = func(p, k int) bool { return (p+k)%2 == 0 }
			return m
		}},
		{"eager", func() *toy {
			m := newToy(2, 1, 1)
			m.eager = true
			return m
		}},
		{"dependent and marked", func() *toy {
			m := newToy(2, 1, 1)
			m.dependent, m.mark = true, true
			return m
		}},
	} {
		for _, opts := range []explore.Options{{}, {NoReduction: true}} {
			name := tc.name
			if opts.NoReduction {
				name += " unreduced"
			}
			m := tc.toy()
			var runs []explore.Run
			got := counters(func() {
				var err error
				if runs, _, err = collect(m, opts); err != nil {
					t.Fatal(err)
				}
			})
			w := want[name]
			if got["leaves"] != w.leaves || got["emitted"] != w.emitted || got["dedup"] != w.dedup || got["pruned"] != w.pruned {
				t.Errorf("%s: counters %v, want leaves %d, emitted %d, dedup %d, pruned %d",
					name, got, w.leaves, w.emitted, w.dedup, w.pruned)
			}
			if d := runsDigest(runs); d != w.digest {
				t.Errorf("%s: runs digest %s, want %s", name, d, w.digest)
			}
			if clones := int64(m.calls.clones); clones != got["leaves"]+got["pruned"]-1 {
				t.Errorf("%s: %d clones, want leaves + pruned − 1 = %d", name, clones, got["leaves"]+got["pruned"]-1)
			}
		}
	}
	// p0;p0 ∥ p1 by hand: the root and its first child each have two
	// awake branches; the root's second branch and that child's second
	// reach nodes whose one branch is asleep.
	m := newToy(2, 1)
	if _, _, err := collect(m, explore.Options{}); err != nil || m.calls.clones != 2 {
		t.Errorf("p0;p0 ∥ p1: %d clones, err %v; want 2", m.calls.clones, err)
	}
}

// runsDigest hashes the runs' computations' renderings in order.
func runsDigest(runs []explore.Run) string {
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "%s\n", r.Comp)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
