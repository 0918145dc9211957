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

// toy is a machine of independent processes; process i takes left[i]
// steps. A step emits an event at the process's own element, so every
// interleaving yields the same partial order — unless shared is set, when
// all steps hit one element and each interleaving is its own computation.
// With eager set, the first enabled step is reported as invisible.
type toy struct {
	Log
	left      []int
	shared    bool
	eager     bool
	finishErr error
}

// step is a toy transition: the index of the process that moves.
type step int

func newToy(steps ...int) *toy {
	return &toy{Log: NewLog(len(steps)), left: steps}
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

func (m *toy) Apply(s step) error {
	m.left[s]--
	elem := fmt.Sprintf("p%d", s)
	if m.shared {
		elem = "x"
	}
	m.Emit(int(s), elem, "Step", core.Params{"proc": core.Int(int64(s))})
	return nil
}

func (m *toy) Clone() *toy {
	next := *m
	next.Log = m.Log.Clone()
	next.left = append([]int(nil), m.left...)
	return &next
}

func (m *toy) Finish() (*core.Computation, error) {
	if m.finishErr != nil {
		return nil, m.finishErr
	}
	return m.Build()
}

func collect(m *toy, opts Options) ([]*core.Computation, bool, error) {
	return Collect(Run[*toy, step], m, opts)
}

func TestInterleavingsOfOnePartialOrderCollapse(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	// Three interleavings of p0;p0 ∥ p1, one partial order.
	runs, truncated, err := collect(newToy(2, 1), Options{})
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
	got := obs.Snapshot().Counters
	for name, want := range map[string]int64{"explore.leaves": 3, "explore.emitted": 1, "explore.dedup": 2} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
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
	m.shared = true
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
	m.shared = true
	runs, truncated, err := collect(m, Options{MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(runs) != 2 {
		t.Fatalf("runs=%d truncated=%v, want 2 runs, truncated", len(runs), truncated)
	}
}

func TestYieldFalseStops(t *testing.T) {
	m := newToy(1, 1, 1)
	m.shared = true
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
	m.shared = true
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
