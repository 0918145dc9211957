package logic

import (
	"context"
	"testing"

	"gem/internal/core"
)

// TestHoldsAllCancelled: the restriction fan-out built on fanout.First
// inherits the cancellation semantics — an already-cancelled context
// reports no counterexample and the caller distinguishes "gave up" from
// "all hold" via ctx.Err().
func TestHoldsAllCancelled(t *testing.T) {
	withProcs(t, 4)
	c, _ := diamondComp(t)
	comps := []*core.Computation{c}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fs := []Formula{TrueF{}, FalseF{}, TrueF{}}
	for _, par := range []int{1, 4} {
		ci, fi, cx := HoldsEvery(fs, comps, CheckOptions{Parallelism: par, Ctx: ctx})
		if ci != -1 || fi != -1 || cx != nil {
			t.Errorf("par %d: cancelled HoldsEvery = (%d, %d, %v), want (-1, -1, nil)", par, ci, fi, cx)
		}
	}
	// Sanity: the same check without cancellation finds the failure at
	// the same index for every parallelism.
	for _, par := range []int{1, 4} {
		ci, fi, cx := HoldsEvery(fs, comps, CheckOptions{Parallelism: par})
		if ci != 0 || fi != 1 || cx == nil {
			t.Errorf("par %d: HoldsEvery = (%d, %d, %v), want (0, 1, cx)", par, ci, fi, cx)
		}
	}
}
