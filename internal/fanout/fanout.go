// Package fanout is the one ordered-parallel primitive behind every
// fan-out in GEM: the sat check over a scenario's computations and over
// a refutation's, logic's formula and (computation, formula) fan-outs,
// the mutation campaign, and the per-file and per-package pools of the
// CLIs. First checks the items of a source on up to par workers and
// reports the lowest-index failure, so its result is the same at every
// parallelism.
package fanout

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the effective worker count for n independent units at
// the requested parallelism: 0 and 1 mean sequential, and the pool is
// never larger than the number of units or useful beyond GOMAXPROCS for
// CPU-bound checking.
func Workers(par, n int) int {
	if par <= 1 || n <= 1 {
		return 1
	}
	if max := runtime.GOMAXPROCS(0); par > max {
		par = max
	}
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	return par
}

// MaxChunk is the most units a worker claims at once. Claiming runs of
// units instead of single items keeps the shared queue off the hot path:
// per-item claims put a contended synchronization point between every
// pair of cheap checks. It also bounds the cancellation latency: workers
// poll the context once per claim, so a cancelled run stops within
// MaxChunk further checks per worker.
const MaxChunk = 16

// lead is how many chunks per worker the source may run ahead of the
// checks: enough that no worker waits on a fast source, few enough that
// a failure stops the source before it has produced much past it.
const lead = 4

// chunk returns how many units a worker claims from a backlog of
// unclaimed units shared by w workers: the backlog split into lead
// claims per worker, at least one and at most MaxChunk. A full backlog
// goes out in MaxChunk-sized claims, and a short source (19 packages,
// 10 computations) still spreads over the whole pool.
func chunk(backlog, w int) int {
	return max(1, min(MaxChunk, backlog/(lead*w)))
}

// Range is the source 0, 1, …, n-1: callers with a slice of n items
// fan out its indices.
func Range(n int) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		for i := 0; i < n && yield(i); i++ {
		}
	}
}

// First runs check on every item src yields, numbered from 0 in yield
// order, and returns the lowest index whose check fails (ok == false)
// with that check's result, or -1 and the zero R when every check
// passes. n is idx+1 on a failure and the number of items yielded
// otherwise, so First returns the same (idx, res, n) at every par.
//
// src runs in the caller's goroutine and must stop once yield returns
// false, which it does as soon as a failure or a cancellation is known.
// With one worker (Workers(par, ·) == 1) First starts no goroutine:
// each check runs inside yield, so yield returns false right after the
// failing item. With more, up to Workers(par, ·) goroutines, started as
// items arrive, claim chunks of consecutive items while src runs at most
// lead chunks per worker ahead of them. Items above the lowest failure
// found so far are skipped; items below it are always checked, so the
// result is the sequential one.
//
// A nil ctx is never cancelled. Once ctx is cancelled, yield returns
// false and each worker stops within one chunk; First returns the best
// failure found so far, or -1 if there was none. Callers that must tell
// "all passed" from "gave up" consult ctx.Err(). Every goroutine First
// starts has exited when it returns.
func First[T, R any](ctx context.Context, par int, src func(yield func(T) bool), check func(i int, t T) (R, bool)) (idx int, res R, n int) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if w := Workers(par, math.MaxInt); w > 1 {
		return parallel(done, w, src, check)
	}
	idx = -1
	stopped := false
	src(func(t T) bool {
		if stopped || (n%MaxChunk == 0 && cancelled(done)) {
			stopped = true
			return false
		}
		r, ok := check(n, t)
		n++
		if !ok {
			idx, res, stopped = n-1, r, true
		}
		return !stopped
	})
	return idx, res, n
}

func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// queue is the state First's source and workers share.
type queue[T, R any] struct {
	mu      sync.Mutex
	ready   sync.Cond // workers wait here for items or the end of the run
	room    sync.Cond // the source waits here for the backlog to shrink
	items   []T       // yielded and unclaimed; items[0] is item number next
	next    int
	n       int  // items yielded
	ended   bool // src returned
	stopped bool // a failure or a cancellation is known
	// fail is the lowest failing index found (math.MaxInt64 if none),
	// written under mu and read without it by workers skipping items.
	fail atomic.Int64
	res  R // the result of item fail
	wg   sync.WaitGroup
}

func parallel[T, R any](done <-chan struct{}, w int, src func(yield func(T) bool), check func(int, T) (R, bool)) (int, R, int) {
	q := &queue[T, R]{}
	q.ready.L, q.room.L = &q.mu, &q.mu
	q.fail.Store(math.MaxInt64)
	started := 0
	src(func(t T) bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		for len(q.items) >= lead*MaxChunk*w && !q.stopped {
			q.room.Wait()
		}
		if q.stopped || cancelled(done) {
			q.stop()
			return false
		}
		q.items = append(q.items, t)
		q.n++
		if started < w {
			started++
			q.wg.Add(1)
			go q.work(done, w, check)
		}
		q.ready.Signal()
		return true
	})
	q.mu.Lock()
	q.ended = true
	q.ready.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
	if f := int(q.fail.Load()); f < math.MaxInt64 {
		return f, q.res, f + 1
	}
	var zero R
	return -1, zero, q.n
}

// stop marks the run stopped and wakes everyone waiting on it. Call
// with q.mu held.
func (q *queue[T, R]) stop() {
	q.stopped = true
	q.ready.Broadcast()
	q.room.Broadcast()
}

// work claims chunks and checks them until the source has ended and the
// queue is drained, or the run has stopped.
func (q *queue[T, R]) work(done <-chan struct{}, w int, check func(int, T) (R, bool)) {
	defer q.wg.Done()
	batch := make([]T, 0, MaxChunk)
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.ended && !q.stopped {
			q.ready.Wait()
		}
		if cancelled(done) {
			q.stop()
		}
		// Chunks are claimed in order, so once a failure is known every
		// item below it has been claimed: nothing queued needs checking.
		if q.stopped || len(q.items) == 0 {
			q.mu.Unlock()
			return
		}
		k := chunk(len(q.items), w)
		lo := q.next
		// Copy the chunk out and clear its slots, so the queue holds no
		// item past its claim.
		batch = append(batch[:0], q.items[:k]...)
		clear(q.items[:k])
		q.items = q.items[k:]
		q.next += k
		q.room.Signal()
		q.mu.Unlock()
		for j, t := range batch {
			i := lo + j
			if int64(i) >= q.fail.Load() {
				break // a lower failure already decides the run
			}
			if r, ok := check(i, t); !ok {
				q.mu.Lock()
				if int64(i) < q.fail.Load() {
					q.fail.Store(int64(i))
					q.res = r
				}
				q.stop()
				q.mu.Unlock()
				break
			}
		}
	}
}
