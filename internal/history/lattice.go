package history

import (
	"sync"
	"sync/atomic"

	"gem/internal/core"
	"gem/internal/obs"
	"gem/internal/order"
)

// Lattice is the memoized history lattice of a computation: the full
// enumeration of its histories, plus the vhs step relation between them,
// computed at most once and shared by every restriction checked against
// the computation. A computation's event set and temporal order
// are immutable, so the lattice never changes; before this cache existed
// every checked formula re-ran the exponential ideal enumeration.
type Lattice struct {
	c *core.Computation

	histOnce  sync.Once
	histories []History

	stepsOnce sync.Once
	steps     [][]int32 // steps[i] = ascending indices j one vhs step above histories[i]

	orderOnce sync.Once
	evalOrder []int32 // history indices by decreasing size
}

// latticeBuilds counts raw lattice enumerations, so tests can assert the
// lattice is enumerated at most once per computation.
var latticeBuilds atomic.Int64

// LatticeBuilds returns the number of raw history-lattice enumerations
// performed through Shared since process start.
func LatticeBuilds() int64 { return latticeBuilds.Load() }

// Shared returns the computation's lattice cache, creating the (empty)
// cache on first use. Enumeration itself is deferred to the first call
// of Histories. Safe for concurrent use.
func Shared(c *core.Computation) *Lattice {
	return c.Derived("history.lattice", func() any { return &Lattice{c: c} }).(*Lattice)
}

// Histories returns every history of the computation, in the same
// deterministic order Enumerate produces. The slice and its histories
// are shared: callers must not modify them.
func (l *Lattice) Histories() []History {
	l.histOnce.Do(func() {
		latticeBuilds.Add(1)
		_, sp := obs.StartSpan(nil, "lattice.build")
		order.IdealsPre(l.c.Reach(), l.c.Preds(), func(ideal order.Bitset) bool {
			// IdealsPre never mutates an emitted set, so it is safe to retain.
			l.histories = append(l.histories, History{c: l.c, set: ideal})
			return true
		})
		sp.End()
		obs.Count("lattice.builds", 1)
		obs.Count("lattice.histories", int64(len(l.histories)))
		obs.SetMax("lattice.max_histories", int64(len(l.histories)))
	})
	return l.histories
}

// Steps returns the valid-history-sequence step relation of the lattice:
// steps[i] lists (ascending) the indices j such that histories[j] extends
// histories[i] by one vhs step — a non-empty, pairwise potentially
// concurrent set of events. (Predecessor-closure of the added events is
// automatic between ideals: an added event's predecessors cannot be among
// the pairwise concurrent additions, so they lie in histories[i].)
// Complete valid history sequences are exactly the maximal paths of this
// DAG from the empty history to the full computation. Memoized; the
// returned slices must not be modified.
func (l *Lattice) Steps() [][]int32 {
	l.stepsOnce.Do(func() {
		hs := l.Histories()
		rows := l.c.Concurrency()
		delta := order.NewBitset(l.c.NumEvents())
		l.steps = make([][]int32, len(hs))
		for i, h1 := range hs {
			for j, h2 := range hs {
				if i == j || !h1.set.SubsetOf(h2.set) {
					continue
				}
				delta.CopyFrom(h2.set)
				delta.AndNotWith(h1.set)
				if order.IsClique(rows, delta) {
					l.steps[i] = append(l.steps[i], int32(j))
				}
			}
		}
	})
	return l.steps
}

// EvalOrder returns the history indices ordered by decreasing history
// size (ties in first-enumerated order). Every strict superset of
// histories[i] — in particular every Steps successor — appears before i,
// so a single pass in this order reaches the fixpoint of any
// successor-determined recurrence (the lattice evaluation engine's □/◇
// rules). Memoized; the returned slice must not be modified.
func (l *Lattice) EvalOrder() []int32 {
	l.orderOnce.Do(func() {
		hs := l.Histories()
		n := l.c.NumEvents()
		// Counting sort by size, largest bucket first, stable within.
		buckets := make([][]int32, n+1)
		for i, h := range hs {
			sz := h.Len()
			buckets[sz] = append(buckets[sz], int32(i))
		}
		l.evalOrder = make([]int32, 0, len(hs))
		for sz := n; sz >= 0; sz-- {
			l.evalOrder = append(l.evalOrder, buckets[sz]...)
		}
	})
	return l.evalOrder
}
