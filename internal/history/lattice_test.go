package history

import (
	"testing"
	"testing/quick"

	"gem/internal/core"
)

// TestLatticeBuildOnce: repeated Histories/Pairs calls on one computation
// perform exactly one raw ideal enumeration.
func TestLatticeBuildOnce(t *testing.T) {
	c, _ := diamond(t)
	before := LatticeBuilds()
	l := Shared(c)
	for i := 0; i < 3; i++ {
		if got := len(l.Histories()); got != 6 {
			t.Fatalf("Histories len = %d, want 6", got)
		}
		n := 0
		l.Pairs(func(h1, h2 History) bool {
			if !h1.Set().SubsetOf(h2.Set()) {
				t.Fatalf("Pairs emitted non-pair %s ⋢ %s", h1, h2)
			}
			n++
			return true
		})
		if n == 0 {
			t.Fatal("Pairs visited nothing")
		}
	}
	if Shared(c) != l {
		t.Error("Shared returned a different lattice for the same computation")
	}
	if d := LatticeBuilds() - before; d != 1 {
		t.Errorf("lattice built %d times, want exactly 1", d)
	}
}

// TestLatticeMatchesEnumerate: the cached lattice lists the histories in
// exactly the order the raw enumeration produces, so cache-backed checks
// find the same (first) counterexample as uncached ones.
func TestLatticeMatchesEnumerate(t *testing.T) {
	c, _ := diamond(t)
	var raw []string
	Enumerate(c, func(h History) bool {
		raw = append(raw, h.Set().String())
		return true
	})
	cached := Shared(c).Histories()
	if len(cached) != len(raw) {
		t.Fatalf("cached %d histories, raw %d", len(cached), len(raw))
	}
	for i, h := range cached {
		if h.Set().String() != raw[i] {
			t.Errorf("history %d: cached %s, raw %s", i, h.Set().String(), raw[i])
		}
	}
}

// TestLatticePairsOrder: Pairs visits exactly the pairs the direct nested
// loop over Histories visits, in the same order.
func TestLatticePairsOrder(t *testing.T) {
	c, _ := diamond(t)
	l := Shared(c)
	hs := l.Histories()
	var want [][2]string
	for _, h1 := range hs {
		for _, h2 := range hs {
			if h1.Set().SubsetOf(h2.Set()) {
				want = append(want, [2]string{h1.Set().String(), h2.Set().String()})
			}
		}
	}
	var got [][2]string
	l.Pairs(func(h1, h2 History) bool {
		got = append(got, [2]string{h1.Set().String(), h2.Set().String()})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Pairs visited %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLatticePairsEarlyStop: a false return stops the iteration.
func TestLatticePairsEarlyStop(t *testing.T) {
	c, _ := diamond(t)
	n := 0
	Shared(c).Pairs(func(h1, h2 History) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d pairs after early stop, want 3", n)
	}
}

// Property: the histories visited by EnumerateComplete and the lattice
// enumeration agree exactly — every history of some complete vhs is a
// lattice history, and every lattice history occurs in some complete vhs.
// This is the consistency contract between the sequence enumerator and
// the lattice evaluation engine built on Histories/Steps.
func TestQuickEnumerateCompleteMatchesLattice(t *testing.T) {
	if err := quickCheckSeeds(t, 40, func(seed int64) bool {
		c := randomComputation(seed, 6)
		inSeqs := make(map[string]bool)
		EnumerateComplete(c, func(s Sequence) bool {
			for _, h := range s {
				inSeqs[h.Set().Key()] = true
			}
			return true
		})
		hs := Shared(c).Histories()
		if len(inSeqs) != len(hs) {
			return false
		}
		for _, h := range hs {
			if !inSeqs[h.Set().Key()] {
				return false
			}
		}
		return true
	}); err != nil {
		t.Error(err)
	}
}

// Property: Steps agrees with a brute-force pairwise definition — j is a
// step successor of i exactly when histories[j] strictly extends
// histories[i] by a pairwise potentially concurrent set — and EvalOrder
// is a permutation that lists every step successor before its source.
func TestQuickStepsAndEvalOrder(t *testing.T) {
	if err := quickCheckSeeds(t, 40, func(seed int64) bool {
		c := randomComputation(seed, 6)
		lat := Shared(c)
		hs := lat.Histories()
		steps := lat.Steps()
		for i, h1 := range hs {
			got := make(map[int32]bool, len(steps[i]))
			for _, j := range steps[i] {
				got[j] = true
			}
			for j, h2 := range hs {
				want := i != j && h1.Set().SubsetOf(h2.Set())
				if want {
					delta := h2.Set().Clone()
					delta.AndNotWith(h1.Set())
					ms := delta.Members()
					for a := 0; a < len(ms) && want; a++ {
						for b := a + 1; b < len(ms); b++ {
							if !c.Concurrent(core.EventID(ms[a]), core.EventID(ms[b])) {
								want = false
								break
							}
						}
					}
				}
				if got[int32(j)] != want {
					return false
				}
			}
		}
		pos := make([]int, len(hs))
		seen := make([]bool, len(hs))
		for p, i := range lat.EvalOrder() {
			if seen[i] {
				return false
			}
			seen[i] = true
			pos[i] = p
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		for i := range hs {
			for _, j := range steps[i] {
				if pos[j] >= pos[i] {
					return false
				}
			}
		}
		return true
	}); err != nil {
		t.Error(err)
	}
}

// quickCheckSeeds runs a seed-indexed property under testing/quick.
func quickCheckSeeds(t *testing.T, max int, f func(seed int64) bool) error {
	t.Helper()
	return quick.Check(f, &quick.Config{MaxCount: max})
}
