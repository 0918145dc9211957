package logic

import (
	"context"
	"testing"
)

// TestHoldsAllCancelled: the restriction fan-out built on fanout.First
// inherits the cancellation semantics — an already-cancelled context
// reports no counterexample and the caller distinguishes "gave up" from
// "all hold" via ctx.Err().
func TestHoldsAllCancelled(t *testing.T) {
	withProcs(t, 4)
	c, _ := diamondComp(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fs := []Formula{TrueF{}, FalseF{}, TrueF{}}
	for _, par := range []int{1, 4} {
		idx, cx := HoldsAll(fs, c, CheckOptions{Parallelism: par, Ctx: ctx})
		if idx != -1 || cx != nil {
			t.Errorf("par %d: cancelled HoldsAll = (%d, %v), want (-1, nil)", par, idx, cx)
		}
	}
	// Sanity: the same check without cancellation finds the failure at
	// the same index for every parallelism.
	for _, par := range []int{1, 4} {
		idx, cx := HoldsAll(fs, c, CheckOptions{Parallelism: par})
		if idx != 1 || cx == nil {
			t.Errorf("par %d: HoldsAll = (%d, %v), want (1, cx)", par, idx, cx)
		}
	}
}
