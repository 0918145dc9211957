package fanout

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs raises GOMAXPROCS for the duration of a test so the parallel
// code paths are exercised even on a single-core host (Workers caps the
// pool at GOMAXPROCS).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	withProcs(t, 4)
	tests := []struct{ par, n, want int }{
		{0, 10, 1},
		{1, 10, 1},
		{4, 10, 4},
		{4, 3, 3},
		{8, 10, 4}, // capped at GOMAXPROCS
		{4, 1, 1},
		{-1, 10, 1},
	}
	for _, tt := range tests {
		if got := Workers(tt.par, tt.n); got != tt.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tt.par, tt.n, got, tt.want)
		}
	}
}

// TestChunk: a claim takes at most MaxChunk units, never zero, and few
// enough of a short backlog that every worker gets several claims.
func TestChunk(t *testing.T) {
	tests := []struct{ backlog, w, want int }{
		{0, 2, 1},
		{1, 4, 1},
		{10, 4, 1}, // a 10-computation refutation at -j4: one each
		{19, 2, 2}, // a 19-package gemgo -j2
		{64, 2, 8},
		{128, 2, 16}, // the full lead of two workers
		{1000, 2, MaxChunk},
		{32, 1, 8},
	}
	for _, tt := range tests {
		if got := chunk(tt.backlog, tt.w); got != tt.want {
			t.Errorf("chunk(%d, %d) = %d, want %d", tt.backlog, tt.w, got, tt.want)
		}
	}
}

// TestFirstDeterminism: the parallel pool reports the same lowest
// failing index and result as the sequential loop, and every unit below
// that index is evaluated (never skipped).
func TestFirstDeterminism(t *testing.T) {
	withProcs(t, 4)
	fails := map[int]bool{7: true, 23: true, 41: true}
	const n = 50
	run := func(par int) (int, string, int, map[int]bool) {
		var mu sync.Mutex
		evaluated := make(map[int]bool)
		idx, res, runs := First(nil, par, Range(n), func(i, _ int) (string, bool) {
			mu.Lock()
			evaluated[i] = true
			mu.Unlock()
			if fails[i] {
				return "failed-" + string(rune('0'+i/10)) + string(rune('0'+i%10)), false
			}
			return "", true
		})
		return idx, res, runs, evaluated
	}
	seqIdx, seqRes, seqRuns, _ := run(1)
	if seqIdx != 7 || seqRes != "failed-07" || seqRuns != 8 {
		t.Fatalf("sequential = (%d, %q, %d), want (7, failed-07, 8)", seqIdx, seqRes, seqRuns)
	}
	for trial := 0; trial < 10; trial++ {
		parIdx, parRes, parRuns, evaluated := run(4)
		if parIdx != seqIdx || parRes != seqRes || parRuns != seqRuns {
			t.Fatalf("parallel = (%d, %q, %d), sequential = (%d, %q, %d)",
				parIdx, parRes, parRuns, seqIdx, seqRes, seqRuns)
		}
		for i := 0; i < seqIdx; i++ {
			if !evaluated[i] {
				t.Fatalf("unit %d below the failing index was skipped", i)
			}
		}
	}
}

func TestFirstAllPass(t *testing.T) {
	withProcs(t, 4)
	for _, par := range []int{1, 4} {
		idx, res, n := First(nil, par, Range(100), func(i, _ int) (int, bool) { return i, true })
		if idx != -1 || res != 0 || n != 100 {
			t.Errorf("par %d: all-pass First = (%d, %d, %d), want (-1, 0, 100)", par, idx, res, n)
		}
	}
}

// stream is an endless source: it yields "item-0", "item-1", … until
// yield returns false, recording every return value of yield in order.
// A check that counts itself in checks lets the stream record in ahead
// the most items it got accepted beyond the checks started.
type stream struct {
	returns []bool
	checks  atomic.Int64
	ahead   int64
}

func (s *stream) src(yield func(string) bool) {
	for i := 0; ; i++ {
		ok := yield(fmt.Sprintf("item-%d", i))
		s.returns = append(s.returns, ok)
		if !ok {
			return
		}
		s.ahead = max(s.ahead, int64(i+1)-s.checks.Load())
	}
}

// TestFirstSequentialStopsSourceAtFailure: with one worker each check
// runs inside yield, so the source sees yield return false on the
// failing item itself and is asked for nothing more.
func TestFirstSequentialStopsSourceAtFailure(t *testing.T) {
	s := &stream{}
	var checked []string
	idx, res, n := First(nil, 1, s.src, func(i int, item string) (string, bool) {
		checked = append(checked, item)
		return item, i != 5
	})
	if idx != 5 || res != "item-5" || n != 6 {
		t.Fatalf("First = (%d, %q, %d), want (5, item-5, 6)", idx, res, n)
	}
	want := []bool{true, true, true, true, true, false}
	if fmt.Sprint(s.returns) != fmt.Sprint(want) {
		t.Errorf("yield returned %v, want %v", s.returns, want)
	}
	if len(checked) != 6 || checked[5] != "item-5" {
		t.Errorf("checked %v, want item-0 … item-5", checked)
	}
}

// TestFirstParallelSlowChecks: with a source that is not a Range, a
// slow check far below the failure does not let a later failure win, a
// slow later failure does not displace an earlier one, no item below
// the failure is skipped, and the source runs at most the bounded lead
// ahead of the checks.
func TestFirstParallelSlowChecks(t *testing.T) {
	withProcs(t, 4)
	sleep := map[int]time.Duration{1: 20 * time.Millisecond, 40: 10 * time.Millisecond, 60: 30 * time.Millisecond}
	for trial := 0; trial < 5; trial++ {
		s := &stream{}
		var mu sync.Mutex
		evaluated := make(map[int]bool)
		idx, res, n := First(nil, 4, s.src, func(i int, item string) (string, bool) {
			s.checks.Add(1)
			time.Sleep(sleep[i])
			mu.Lock()
			evaluated[i] = true
			mu.Unlock()
			return item, i != 40 && i != 60
		})
		if idx != 40 || res != "item-40" || n != 41 {
			t.Fatalf("First = (%d, %q, %d), want (40, item-40, 41)", idx, res, n)
		}
		for i := 0; i < idx; i++ {
			if !evaluated[i] {
				t.Fatalf("item %d below the failure was skipped", i)
			}
		}
		if last := s.returns[len(s.returns)-1]; last {
			t.Fatal("the source ended with yield still returning true")
		}
		// The backlog plus one claimed chunk per worker.
		if bound := int64((lead + 1) * MaxChunk * Workers(4, n)); s.ahead > bound {
			t.Errorf("the source ran %d items ahead of the checks, bound is %d", s.ahead, bound)
		}
	}
}
