// Package exploretest checks a machine's Independent relation against
// the machine's own semantics. The languages' tests run it on their
// programs: a wrong "independent" answer would let the explorer's sleep
// sets prune computations, and this finds it directly rather than
// through a missing run.
package exploretest

import (
	"fmt"
	"math/rand"
	"slices"

	"gem/internal/explore"
)

const (
	// maxSteps bounds one random schedule.
	maxSteps = 10000
	// horizon is how far past an independent pair commute follows the
	// two orders, so a difference that surfaces only later (a queue
	// order, say) is caught too.
	horizon = 40
)

// Commutes follows walks seeded random schedules of m to their end and,
// at every state on the way, checks each pair of enabled transitions
// that m calls independent: the relation must be symmetric, neither
// transition may disable the other, and the two orders must reach
// states that nothing tells apart — the same Key with the same
// transitions enabled, and so on along a random continuation applied to
// both. It returns the first violation.
func Commutes[M explore.Machine[M, T, R], T comparable, R any](m M, walks int) error {
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < walks; w++ {
		s := m.Clone()
		for step := 0; ; step++ {
			if step > maxSteps {
				return fmt.Errorf("walk %d exceeded %d steps", w, maxSteps)
			}
			ts := enabled[M, T, R](s)
			if len(ts) == 0 {
				break
			}
			for i, a := range ts {
				for _, b := range ts[i+1:] {
					if err := commute[M, T, R](s, a, b, rng); err != nil {
						return fmt.Errorf("walk %d, step %d: %w", w, step, err)
					}
				}
			}
			if err := s.Apply(ts[rng.Intn(len(ts))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// enabled lists every transition enabled in s, unreduced.
func enabled[M explore.Machine[M, T, R], T comparable, R any](s M) []T {
	_, _, ts := s.Clone().Transitions(true)
	return ts
}

// commute checks one pair of transitions enabled in s.
func commute[M explore.Machine[M, T, R], T comparable, R any](s M, a, b T, rng *rand.Rand) error {
	ab, ba := s.Independent(a, b), s.Independent(b, a)
	if ab != ba {
		return fmt.Errorf("Independent(%+v, %+v) = %v, but %v the other way round", a, b, ab, ba)
	}
	if !ab {
		return nil
	}
	var ends [2]M
	for i, order := range [2][2]T{{a, b}, {b, a}} {
		ends[i] = s.Clone()
		if err := ends[i].Apply(order[0]); err != nil {
			return err
		}
		if !slices.Contains(enabled[M, T, R](ends[i]), order[1]) {
			return fmt.Errorf("independent %+v disables %+v", order[0], order[1])
		}
		if err := ends[i].Apply(order[1]); err != nil {
			return err
		}
	}
	for step := 0; ; step++ {
		ea, eb := enabled[M, T, R](ends[0]), enabled[M, T, R](ends[1])
		if len(ea) != len(eb) || !subset(ea, eb) {
			return fmt.Errorf("independent %+v and %+v enable %+v in one order, %+v in the other", a, b, ea, eb)
		}
		if len(ea) == 0 || step == horizon {
			break
		}
		t := ea[rng.Intn(len(ea))]
		for _, end := range ends {
			if err := end.Apply(t); err != nil {
				return err
			}
		}
	}
	// Logs only grow, so one comparison at the end covers every step.
	if ends[0].Key() != ends[1].Key() {
		return fmt.Errorf("independent %+v and %+v reach different computations in either order", a, b)
	}
	return nil
}

// subset reports whether every member of xs is in ys.
func subset[T comparable](xs, ys []T) bool {
	for _, x := range xs {
		if !slices.Contains(ys, x) {
			return false
		}
	}
	return true
}
