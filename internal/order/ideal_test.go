package order

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIdealsDiamond(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	var ideals []string
	n := IdealsPre(reach, Invert(reach), func(ideal Bitset) bool {
		ideals = append(ideals, ideal.String())
		return true
	})
	// The paper (Section 7) lists histories α0..α4 plus the empty prefix:
	// {}, {e1}, {e1,e2}, {e1,e3}, {e1,e2,e3}, {e1,e2,e3,e4}.
	if n != 6 {
		t.Fatalf("diamond has %d ideals (%v), want 6", n, ideals)
	}
	wantSet := map[string]bool{
		"{}": true, "{0}": true, "{0, 1}": true,
		"{0, 2}": true, "{0, 1, 2}": true, "{0, 1, 2, 3}": true,
	}
	for _, s := range ideals {
		if !wantSet[s] {
			t.Errorf("unexpected ideal %s", s)
		}
	}
}

func TestIdealsLimitAndEarlyStop(t *testing.T) {
	reach := NewRows(6)
	// Empty order: 2^6 = 64 ideals.
	if n := IdealsPre(reach, Invert(reach), func(Bitset) bool { return true }); n != 64 {
		t.Errorf("got %d ideals, want 64", n)
	}
	calls := 0
	n := IdealsPre(reach, Invert(reach), func(Bitset) bool { calls++; return calls < 5 })
	if calls != 5 || n != 5 {
		t.Errorf("early stop after %d calls, %d ideals counted, want 5", calls, n)
	}
}

func TestMinimalOutside(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	preds := Invert(reach)
	h := NewBitset(4)
	h.Set(0)
	got := MinimalOutsideAppend(reach, preds, h, nil)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("after {e1}, extendable = %v, want [1 2]", got)
	}
	full := NewBitset(4)
	for i := 0; i < 4; i++ {
		full.Set(i)
	}
	if got := MinimalOutsideAppend(reach, preds, full, nil); got != nil {
		t.Errorf("full history should have no extensions, got %v", got)
	}
}

func TestDownClosureAndIsIdeal(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	preds := Invert(reach)
	s := NewBitset(4)
	s.Set(3) // e4 alone is not prefix-closed
	if IsIdeal(preds, s) {
		t.Error("{e4} should not be an ideal")
	}
	closed := s.Clone()
	s.ForEach(func(v int) bool {
		closed.OrWith(preds.Row(v))
		return true
	})
	if got := closed.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("closure of {e4} = %v, want all", got)
	}
	if !IsIdeal(preds, closed) {
		t.Error("down closure must be an ideal")
	}
}

// Property: every enumerated ideal is downward closed, and the count equals
// a brute-force count over all subsets (small n).
func TestQuickIdealsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		d := randomDAG(rng, n, 0.4)
		reach, err := d.TransitiveClosure()
		if err != nil {
			return false
		}
		preds := Invert(reach)
		allClosed := true
		got := IdealsPre(reach, preds, func(ideal Bitset) bool {
			if !IsIdeal(preds, ideal) {
				allClosed = false
				return false
			}
			return true
		})
		if !allClosed {
			return false
		}
		// Brute force over all 2^n subsets.
		want := 0
		for mask := 0; mask < 1<<n; mask++ {
			s := NewBitset(n)
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					s.Set(v)
				}
			}
			if IsIdeal(preds, s) {
				want++
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
