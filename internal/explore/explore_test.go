package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/obs"
)

// toy is a machine of independent processes; process i takes total[i]
// steps. A step emits an event at the process's own element, so every
// interleaving yields the same partial order — unless shared says the
// step is at the one shared element x, where the order of steps is part
// of the computation. With eager set, the first enabled step is reported
// as invisible.
type toy struct {
	Log
	total, left []int
	shared      func(proc, k int) bool // is process proc's k-th step at x?
	eager       bool
	finishErr   error
	finishes    *finishLog
}

// finishLog counts a toy's Finish calls across all its clones.
type finishLog struct{ calls, unfinished int }

// step is a toy transition: the index of the process that moves.
type step int

func newToy(steps ...int) *toy {
	return &toy{Log: NewLog(len(steps)), total: steps, left: append([]int(nil), steps...), finishes: &finishLog{}}
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
func (m *toy) Independent(a, b step) bool { return m.elem(a) != m.elem(b) }

func (m *toy) Apply(s step) error {
	m.Emit(int(s), m.elem(s), "Step", core.Params{"proc": core.Int(int64(s))})
	m.left[s]--
	return nil
}

func (m *toy) Clone() *toy {
	next := *m
	next.Log = m.Log.Clone()
	next.left = append([]int(nil), m.left...)
	return &next
}

func (m *toy) Finish() (*core.Computation, error) {
	m.finishes.calls++
	for _, n := range m.left {
		if n > 0 {
			m.finishes.unfinished++
		}
	}
	if m.finishErr != nil {
		return nil, m.finishErr
	}
	return m.Build()
}

func collect(m *toy, opts Options) ([]*core.Computation, bool, error) {
	return Collect(Run[*toy, step], m, opts)
}

// counters runs f with a fresh obs collector and returns the explore.*
// counters it recorded.
func counters(f func()) map[string]int64 {
	obs.Enable()
	defer obs.Disable()
	f()
	got := obs.Snapshot().Counters
	return map[string]int64{
		"leaves": got["explore.leaves"], "emitted": got["explore.emitted"],
		"dedup": got["explore.dedup"], "pruned": got["explore.pruned"],
	}
}

func TestInterleavingsOfOnePartialOrderCollapse(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want map[string]int64
	}{
		// Sleep sets reach the one partial order of p0;p0 ∥ p1 once: the
		// two other interleavings are pruned before their leaves.
		{Options{}, map[string]int64{"leaves": 1, "emitted": 1, "dedup": 0, "pruned": 2}},
		// Unreduced, all three interleavings reach a leaf; two are
		// dropped there as duplicates.
		{Options{NoReduction: true}, map[string]int64{"leaves": 3, "emitted": 1, "dedup": 2, "pruned": 0}},
	} {
		var runs []*core.Computation
		var err error
		var truncated bool
		got := counters(func() { runs, truncated, err = collect(newToy(2, 1), tc.opts) })
		if err != nil || truncated {
			t.Fatalf("err=%v truncated=%v", err, truncated)
		}
		if len(runs) != 1 {
			t.Fatalf("got %d runs, want 1", len(runs))
		}
		c := runs[0]
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

// emittedSeq explores m and renders the emitted runs in emission order.
func emittedSeq(t *testing.T, m *toy, opts Options) []string {
	t.Helper()
	var out []string
	if _, err := Run[*toy, step](m, opts, func(c *core.Computation) bool {
		out = append(out, renderComp(c))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// renderComp renders a computation in event-ID order, edges included.
func renderComp(c *core.Computation) string {
	var sb strings.Builder
	for _, e := range c.Events() {
		fmt.Fprintf(&sb, "%s^%d%v>%v;", e.Element, e.Seq, e.Params, c.Enabled(e.ID))
	}
	return sb.String()
}

// TestSleepSetsKeepTheEmittedSequence: on toys mixing shared and private
// steps, sleep sets emit exactly the unreduced exploration's runs, in
// the same order, while reaching fewer leaves.
func TestSleepSetsKeepTheEmittedSequence(t *testing.T) {
	patterns := map[string]func(proc, k int) bool{
		"alternating":  func(p, k int) bool { return (p+k)%2 == 0 },
		"first-only":   func(_, k int) bool { return k == 0 },
		"proc-0-and-2": func(p, _ int) bool { return p != 1 },
		"last-two":     func(p, k int) bool { return k >= 1 && p < 3 },
	}
	for name, shared := range patterns {
		t.Run(name, func(t *testing.T) {
			mk := func() *toy {
				m := newToy(2, 1, 2, 1)
				m.shared = shared
				return m
			}
			var reduced, full []string
			cr := counters(func() { reduced = emittedSeq(t, mk(), Options{}) })
			cf := counters(func() { full = emittedSeq(t, mk(), Options{NoReduction: true}) })
			if strings.Join(reduced, "\n") != strings.Join(full, "\n") {
				t.Fatalf("emitted sequences differ: reduced %d runs, unreduced %d", len(reduced), len(full))
			}
			if cr["leaves"] >= cf["leaves"] || cr["pruned"] == 0 {
				t.Errorf("sleep sets pruned nothing: reduced %v, unreduced %v", cr, cf)
			}
		})
	}
}

// TestPrunedNodesAreNeverFinished: a node whose branches are all asleep
// is not a leaf; Finish is called once per emitted run, always on a
// terminal state.
func TestPrunedNodesAreNeverFinished(t *testing.T) {
	m := newToy(2, 1, 1)
	var runs []*core.Computation
	got := counters(func() {
		var err error
		if runs, _, err = collect(m, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got["pruned"] == 0 {
		t.Fatalf("no pruned node: %v", got)
	}
	if m.finishes.calls != len(runs) || m.finishes.unfinished != 0 {
		t.Errorf("Finish called %d times (%d on unfinished states), want %d, 0",
			m.finishes.calls, m.finishes.unfinished, len(runs))
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
	if runs, _, err := collect(m, Options{}); err != nil || len(runs) != 1 {
		t.Fatalf("runs=%d err=%v, want 1 run", len(runs), err)
	}
	if got := obs.Snapshot().Counters["explore.leaves"]; got != 1 {
		t.Errorf("reduced exploration reached %d leaves, want 1", got)
	}
	obs.Enable()
	m = newToy(2, 1)
	m.eager = true
	if runs, _, err := collect(m, Options{NoReduction: true}); err != nil || len(runs) != 1 {
		t.Fatalf("runs=%d err=%v, want 1 run", len(runs), err)
	}
	if got := obs.Snapshot().Counters["explore.leaves"]; got != 3 {
		t.Errorf("unreduced exploration reached %d leaves, want 3", got)
	}
}

func TestDistinctOrdersAtASharedElement(t *testing.T) {
	m := newToy(1, 1, 1)
	m.shared = allShared
	runs, _, err := collect(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("got %d runs, want 3! = 6", len(runs))
	}
}

func TestMaxRunsTruncates(t *testing.T) {
	m := newToy(1, 1, 1)
	m.shared = allShared
	runs, truncated, err := collect(m, Options{MaxRuns: 2})
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
	runs, truncated, err := collect(m, Options{MaxRuns: 2})
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
	truncated, err := Run[*toy, step](m, Options{}, func(*core.Computation) bool {
		n++
		return false
	})
	if err != nil || truncated || n != 1 {
		t.Fatalf("yielded %d, truncated=%v, err=%v; want 1, false, nil", n, truncated, err)
	}
}

func TestMaxStepsIsAnError(t *testing.T) {
	_, _, err := collect(newToy(5), Options{MaxSteps: 3})
	if err == nil || !strings.Contains(err.Error(), "exceeded 3 steps") {
		t.Fatalf("err = %v, want the step-cap error", err)
	}
	m := newToy(5)
	m.eager = true
	if _, _, err := collect(m, Options{MaxSteps: 3}); err == nil {
		t.Fatal("eager steps must count against MaxSteps")
	}
}

func TestFinishErrorReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	m := newToy(1, 1)
	m.finishErr = boom
	runs, truncated, err := collect(m, Options{})
	if !errors.Is(err, boom) || truncated || len(runs) != 0 {
		t.Fatalf("runs=%d truncated=%v err=%v, want the Finish error", len(runs), truncated, err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := collect(newToy(1, 1), Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	m := newToy(1, 1, 1)
	m.shared = allShared
	n := 0
	_, err := Run[*toy, step](m, Options{Ctx: ctx}, func(*core.Computation) bool {
		n++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) || n != 1 {
		t.Fatalf("cancelled mid-walk: yielded %d, err = %v; want 1, context.Canceled", n, err)
	}
}

func TestLogCloneIsIndependent(t *testing.T) {
	a := NewLog(1)
	for i := 0; i < 3; i++ { // leaves spare capacity behind a's events
		a.Emit(0, "p", "A", nil)
	}
	b := a.Clone()
	a.Emit(0, "p", "B", nil)
	b.Emit(0, "p", "C", nil)
	if strings.Contains(b.Key(), ":B") || strings.Contains(a.Key(), ":C") {
		t.Fatalf("clones share emitted events:\na=%s\nb=%s", a.Key(), b.Key())
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() != 4 {
		t.Errorf("clone built %d events, want 4", c.NumEvents())
	}
}
