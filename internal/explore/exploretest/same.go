package exploretest

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/explore"
)

// SameComputations reports the first way in which reduced, the runs of
// a reduced exploration, differ from full, the runs of the unreduced
// exploration of the same program, which come out once per
// interleaving. reduced must hold each computation of full exactly
// once, by explore.Key, and nothing else. With ordered set it must also
// hold them in the order full first reaches them, each built as full
// first built it: the same String, so the same event IDs.
func SameComputations(reduced, full []*core.Computation, ordered bool) error {
	index := map[string]int{} // Key → position among first occurrences
	var first []*core.Computation
	for _, c := range full {
		k := explore.Key(c)
		if _, ok := index[k]; !ok {
			index[k] = len(first)
			first = append(first, c)
		}
	}
	emitted := map[string]bool{}
	for i, c := range reduced {
		k := explore.Key(c)
		j, ok := index[k]
		switch {
		case !ok:
			return fmt.Errorf("run %d is no computation of the unreduced exploration:\n%s", i, k)
		case emitted[k]:
			return fmt.Errorf("run %d repeats an emitted computation:\n%s", i, k)
		case ordered && (i != j || c.String() != first[j].String()):
			return fmt.Errorf("run %d is\n%sbut the unreduced exploration first reaches that computation %d-th, built as\n%s", i, c, j, first[j])
		}
		emitted[k] = true
	}
	if len(reduced) != len(first) {
		return fmt.Errorf("reduced exploration emits %d runs, unreduced reaches %d computations in %d runs",
			len(reduced), len(first), len(full))
	}
	return nil
}
