package exploretest

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/explore"
)

// SameRuns reports the first way in which reduced, the runs of a
// reduced exploration, differ from full, the runs of the unreduced
// exploration of the same program, which come out once per
// interleaving. reduced must hold each computation of full, with each
// deadlock flag full ends it with, exactly once, by explore.Key and the
// flag, and nothing else. With ordered set it must also hold them in the
// order full first reaches them, each built as full first built it: the
// same String, so the same event IDs.
func SameRuns(reduced, full []explore.Run, ordered bool) error {
	index := map[runKey]int{} // key → position among first occurrences
	var first []explore.Run
	for _, r := range full {
		k := keyOf(r)
		if _, ok := index[k]; !ok {
			index[k] = len(first)
			first = append(first, r)
		}
	}
	emitted := map[runKey]bool{}
	for i, r := range reduced {
		k := keyOf(r)
		j, ok := index[k]
		switch {
		case !ok:
			return fmt.Errorf("run %d (deadlock %v) is no run of the unreduced exploration:\n%s", i, k.deadlock, k.comp)
		case emitted[k]:
			return fmt.Errorf("run %d (deadlock %v) repeats an emitted run:\n%s", i, k.deadlock, k.comp)
		case ordered && (i != j || r.Comp.String() != first[j].Comp.String()):
			return fmt.Errorf("run %d is\n%sbut the unreduced exploration first reaches that computation %d-th, built as\n%s", i, r.Comp, j, first[j].Comp)
		}
		emitted[k] = true
	}
	if len(reduced) != len(first) {
		return fmt.Errorf("reduced exploration emits %d runs, unreduced reaches %d distinct runs in %d",
			len(reduced), len(first), len(full))
	}
	return nil
}

// runKey is what SameRuns tells runs apart by. It is built here rather
// than taken from explore.Run.Key, which the driver drops repeats by, so
// that a driver key that loses the deadlock flag fails the oracle.
type runKey struct {
	comp     string
	deadlock bool
}

func keyOf(r explore.Run) runKey { return runKey{explore.Key(r.Comp), r.Deadlock} }

// Last returns the integer parameter param of the last event of ref's
// class at ref's element, by element order, and whether that class has
// an event in c: what a run's end state held, read off its computation,
// such as the newval of a variable's last Assign.
func Last(c *core.Computation, ref core.ClassRef, param string) (int64, bool) {
	var v core.Value
	last := -1
	for _, id := range c.EventsOf(ref) {
		if e := c.Event(id); e.Seq() > last {
			last = e.Seq()
			v, _ = e.Params().Get(param)
		}
	}
	return v.I, last >= 0
}
