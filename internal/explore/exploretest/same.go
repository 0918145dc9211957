package exploretest

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/explore"
)

// Run is what the oracle compares of a run: its computation and whether
// it ended in deadlock, in which two runs of one computation may differ.
type Run struct {
	Comp     *core.Computation
	Deadlock bool
}

// key renders r as explore.Key does, with its deadlock flag.
func (r Run) key() string {
	k := explore.Key(r.Comp)
	if r.Deadlock {
		k += "\ndeadlock"
	}
	return k
}

// SameRuns reports the first way in which reduced, the runs of a
// reduced exploration, differ from full, the runs of the unreduced
// exploration of the same program, which come out once per
// interleaving. reduced must hold each computation of full, with each
// deadlock flag full ends it with, exactly once, by explore.Key, and
// nothing else. With ordered set it must also hold them in the order
// full first reaches them, each built as full first built it: the same
// String, so the same event IDs.
func SameRuns(reduced, full []Run, ordered bool) error {
	index := map[string]int{} // key → position among first occurrences
	var first []Run
	for _, r := range full {
		k := r.key()
		if _, ok := index[k]; !ok {
			index[k] = len(first)
			first = append(first, r)
		}
	}
	emitted := map[string]bool{}
	for i, r := range reduced {
		k := r.key()
		j, ok := index[k]
		switch {
		case !ok:
			return fmt.Errorf("run %d is no run of the unreduced exploration:\n%s", i, k)
		case emitted[k]:
			return fmt.Errorf("run %d repeats an emitted run:\n%s", i, k)
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
