package logic

import (
	"context"

	"gem/internal/core"
	"gem/internal/fanout"
)

// Done returns ctx's done channel, tolerating a nil context (the
// engines treat nil as context.Background(): never cancelled). Polling
// a nil channel in a select with a default case is free, so callers can
// hold the channel instead of re-checking ctx.
func Done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Cancelled reports whether the done channel (from Done) is closed,
// without blocking.
func Cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// HoldsAll checks several restrictions, returning the first
// counterexample, annotated with its index, or (-1, nil) if all hold.
// With opts.Parallelism > 1 the restrictions are checked concurrently
// with deterministic first-failure semantics: the reported index and
// counterexample are the ones the sequential run finds. Cancellation of
// opts.Ctx stops the fan-out promptly (see fanout.First).
func HoldsAll(fs []Formula, c *core.Computation, opts CheckOptions) (int, *Counterexample) {
	idx, cx, _ := fanout.First(opts.Ctx, opts.Parallelism, fanout.Range(len(fs)), func(i, _ int) (*Counterexample, bool) {
		cx := Holds(fs[i], c, opts)
		return cx, cx == nil
	})
	return idx, cx
}

// HoldsEvery checks every restriction against every computation, fanning
// the (computation, formula) pairs out to a worker pool. It returns the
// indices of the first failure in (computation-major, formula-minor)
// order plus its counterexample, or (-1, -1, nil) when every pair holds —
// exactly what nested sequential loops would report. Cancellation of
// opts.Ctx stops the fan-out promptly (see fanout.First).
func HoldsEvery(fs []Formula, comps []*core.Computation, opts CheckOptions) (int, int, *Counterexample) {
	if len(fs) == 0 || len(comps) == 0 {
		return -1, -1, nil
	}
	u, cx, _ := fanout.First(opts.Ctx, opts.Parallelism, fanout.Range(len(comps)*len(fs)), func(i, _ int) (*Counterexample, bool) {
		cx := Holds(fs[i%len(fs)], comps[i/len(fs)], opts)
		return cx, cx == nil
	})
	if u < 0 {
		return -1, -1, nil
	}
	return u / len(fs), u % len(fs), cx
}
