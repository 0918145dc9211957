package history

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/obs"
	"gem/internal/order"
)

// Sequence is a (candidate) valid history sequence: α0 ⊑ α1 ⊑ ….
type Sequence []History

// Validate checks the two vhs conditions from the paper: the sequence is
// monotonically increasing, and any two events first occurring in the same
// history are potentially concurrent. The concurrency condition is decided
// by a clique test of the step's delta against the computation's memoized
// per-event concurrency rows, with the delta held in one scratch set
// reused across steps; only on failure is the pairwise loop replayed to
// name the offending events.
func (s Sequence) Validate() error {
	if len(s) < 2 {
		return nil
	}
	c := s[1].Computation()
	rows := c.Concurrency()
	delta := order.NewBitset(c.NumEvents())
	for i := 1; i < len(s); i++ {
		if !s[i-1].PrefixOf(s[i]) {
			return fmt.Errorf("history: step %d is not monotone", i)
		}
		delta.CopyFrom(s[i].Set())
		delta.AndNotWith(s[i-1].Set())
		if !order.IsClique(rows, delta) {
			members := delta.Members()
			for a := 0; a < len(members); a++ {
				for b := a + 1; b < len(members); b++ {
					ea, eb := core.EventID(members[a]), core.EventID(members[b])
					if !c.Concurrent(ea, eb) {
						return fmt.Errorf("history: step %d adds ordered events %s and %s simultaneously",
							i, c.Event(ea).Name(), c.Event(eb).Name())
					}
				}
			}
		}
	}
	return nil
}

// IsComplete reports whether the sequence starts at the empty history and
// ends at the full computation — i.e. it describes an entire execution.
func (s Sequence) IsComplete() bool {
	if len(s) == 0 {
		return false
	}
	return s[0].Len() == 0 && s[len(s)-1].IsFull()
}

// String renders the sequence.
func (s Sequence) String() string {
	var sb strings.Builder
	for i, h := range s {
		if i > 0 {
			sb.WriteString(" ⊑ ")
		}
		sb.WriteString(h.String())
	}
	return sb.String()
}

// EnumerateComplete enumerates every maximal valid history sequence of c:
// strictly increasing sequences from the empty history to the full
// computation, where each step adds a non-empty antichain of pairwise
// concurrent events whose predecessors are already present. fn receives
// each complete sequence; the slice and its histories are owned by the
// callback (they are freshly allocated per sequence). Enumeration stops
// early when fn returns false. Returns the number produced.
func EnumerateComplete(c *core.Computation, fn func(s Sequence) bool) int {
	n := c.NumEvents()
	count := 0
	stop := false
	reach, preds := c.Reach(), c.Preds()
	cmp := func(u, v int) bool {
		return c.Temporal(core.EventID(u), core.EventID(v)) || c.Temporal(core.EventID(v), core.EventID(u))
	}
	// Frontier buffers are reused per recursion depth; only the history
	// sets themselves are freshly allocated, since emitted sequences own
	// them.
	var frontiers [][]int

	var rec func(cur order.Bitset, seq []order.Bitset, depth int)
	rec = func(cur order.Bitset, seq []order.Bitset, depth int) {
		if stop {
			return
		}
		if cur.Count() == n {
			count++
			out := make(Sequence, len(seq))
			for i, s := range seq {
				out[i] = History{c: c, set: s}
			}
			if !fn(out) {
				stop = true
			}
			return
		}
		if depth >= len(frontiers) {
			frontiers = append(frontiers, nil)
		}
		frontier := order.MinimalOutsideAppend(reach, preds, cur, frontiers[depth][:0])
		frontiers[depth] = frontier
		order.Antichains(frontier, cmp, func(chain []int) bool {
			next := cur.Clone()
			for _, v := range chain {
				next.Set(v)
			}
			rec(next, append(seq, next), depth+1)
			return !stop
		})
	}
	empty := order.NewBitset(n)
	rec(empty, []order.Bitset{empty}, 0)
	obs.Count("sequences.enumerated", int64(count))
	return count
}

// EnumerateLinear enumerates only the step-size-one complete sequences —
// the linear extensions of the temporal order, viewed as history
// sequences. This is the interleaving semantics many other models use; GEM
// admits the larger vhs set (simultaneous concurrent steps). Used by the
// E10 ablation.
func EnumerateLinear(c *core.Computation, fn func(s Sequence) bool) int {
	n := c.NumEvents()
	count := order.LinearExtensions(c.Reach(), func(ext []int) bool {
		seq := make(Sequence, 0, n+1)
		set := order.NewBitset(n)
		seq = append(seq, History{c: c, set: set.Clone()})
		for _, v := range ext {
			set.Set(v)
			seq = append(seq, History{c: c, set: set.Clone()})
		}
		return fn(seq)
	})
	obs.Count("sequences.enumerated", int64(count))
	return count
}

// CountComplete returns the number of maximal valid history sequences.
func CountComplete(c *core.Computation) int {
	return EnumerateComplete(c, func(Sequence) bool { return true })
}
