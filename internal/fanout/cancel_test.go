package fanout

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFirstCancelledBeforeStart: an already-cancelled context
// evaluates no units at all, sequentially or in parallel.
func TestFirstCancelledBeforeStart(t *testing.T) {
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		var calls atomic.Int64
		idx, res, _ := First(ctx, par, Range(10_000), func(i, _ int) (int, bool) {
			calls.Add(1)
			return i, true
		})
		if idx != -1 || res != 0 {
			t.Errorf("par %d: cancelled First = (%d, %d), want (-1, 0)", par, idx, res)
		}
		if got := calls.Load(); got != 0 {
			t.Errorf("par %d: cancelled run still evaluated %d units", par, got)
		}
	}
}

// TestFirstCancelPromptness: cancelling mid-run stops the pool within
// the documented bound — at most MaxChunk further checks per worker
// after the cancellation is observable.
func TestFirstCancelPromptness(t *testing.T) {
	withProcs(t, 4)
	const n = 1 << 20 // far more units than any worker should touch
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var after atomic.Int64
		var cancelled atomic.Bool
		const cancelAt = 100
		idx, _, _ := First(ctx, par, Range(n), func(i, _ int) (int, bool) {
			if cancelled.Load() {
				after.Add(1)
			}
			if i == cancelAt {
				cancelled.Store(true)
				cancel()
			}
			return 0, true
		})
		cancel()
		if idx != -1 {
			t.Errorf("par %d: no unit fails, got index %d", par, idx)
		}
		bound := int64(Workers(par, n) * MaxChunk)
		if got := after.Load(); got > bound {
			t.Errorf("par %d: %d checks ran after cancellation, bound is %d", par, got, bound)
		}
	}
}

// TestFirstCancelKeepsBestFailure: a failure recorded before the
// cancellation is still reported, and it is a genuine failing unit — a
// cancelled run returns partial results, not fabricated ones.
func TestFirstCancelKeepsBestFailure(t *testing.T) {
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const failAt = 5
	idx, res, _ := First(ctx, 4, Range(1<<20), func(i, _ int) (string, bool) {
		if i == failAt {
			cancel() // cancel as soon as the failure is found
			return "boom", false
		}
		return "", true
	})
	if idx != failAt || res != "boom" {
		t.Errorf("cancelled-after-failure First = (%d, %q), want (%d, %q)", idx, res, failAt, "boom")
	}
	if ctx.Err() == nil {
		t.Error("context should report cancellation")
	}
}

// TestFirstCancelNoGoroutineLeak: a cancelled parallel run leaves no
// workers behind. First joins its pool before returning, so after a
// settling period the goroutine count is back to the baseline.
func TestFirstCancelNoGoroutineLeak(t *testing.T) {
	withProcs(t, 4)
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		First(ctx, 4, Range(1<<20), func(i, _ int) (int, bool) {
			if i == 50 {
				cancel()
			}
			return 0, true
		})
		cancel()
	}
	waitForGoroutines(t, baseline)
}

// TestFirstCancelMidStream: cancelling while an endless source is still
// producing stops the source — its yield returns false, so First
// returns instead of leaving the source blocked on a full backlog — and
// leaves no worker behind.
func TestFirstCancelMidStream(t *testing.T) {
	withProcs(t, 4)
	baseline := runtime.NumGoroutine()
	for _, par := range []int{1, 4} {
		for trial := 0; trial < 10; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			s := &stream{}
			idx, _, n := First(ctx, par, s.src, func(i int, _ string) (int, bool) {
				if i == 50 {
					cancel()
				}
				return 0, true
			})
			cancel()
			if idx != -1 {
				t.Fatalf("par %d: no item fails, got index %d", par, idx)
			}
			if last := s.returns[len(s.returns)-1]; last {
				t.Fatalf("par %d: the source ended with yield still returning true", par)
			}
			if n < 51 {
				t.Fatalf("par %d: First counted %d items, the cancelling check alone saw 51", par, n)
			}
		}
	}
	waitForGoroutines(t, baseline)
}

// waitForGoroutines fails the test unless the goroutine count settles
// back to baseline. The pools are joined synchronously; the runtime may
// take a moment to retire exited goroutines.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
