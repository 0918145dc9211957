package history

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestPaperVHS reproduces the Section 7 valid-history-sequence enumeration
// (experiment E2): the diamond computation has exactly three maximal vhs —
// α0,α1,α3,α4 / α0,α2,α3,α4 / α0,α3,α4 (each preceded here by the empty
// history).
func TestPaperVHS(t *testing.T) {
	c, _ := diamond(t)
	var seqs []Sequence
	n := EnumerateComplete(c, func(s Sequence) bool {
		seqs = append(seqs, s)
		return true
	})
	if n != 3 || len(seqs) != 3 {
		t.Fatalf("found %d maximal vhs, want 3", n)
	}
	// Collect signature strings: sizes of each history.
	sigs := make(map[string]bool)
	for _, s := range seqs {
		if err := s.Validate(); err != nil {
			t.Errorf("enumerated sequence invalid: %v", err)
		}
		if !s.IsComplete() {
			t.Error("sequence should run from empty to full")
		}
		sig := ""
		for _, h := range s {
			sig += string(rune('0' + h.Len()))
		}
		sigs[sig] = true
	}
	// 0,1,2,3,4 twice (via e2 first or e3 first) collapses to one
	// signature; 0,1,3,4 is the simultaneous step.
	if !sigs["01234"] || !sigs["0134"] {
		t.Errorf("sequence shapes = %v, want 01234 and 0134", sigs)
	}
}

func TestVHSValidateRejectsNonMonotone(t *testing.T) {
	c, ids := diamond(t)
	s := Sequence{prefix(t, c, ids[1]), prefix(t, c, ids[0])}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "monotone") {
		t.Errorf("want monotonicity error, got %v", err)
	}
}

func TestVHSValidateRejectsOrderedSimultaneousStep(t *testing.T) {
	c, ids := diamond(t)
	// Jump from {} to {e1, e2}: e1 ⇒ e2, so they cannot first occur in the
	// same history.
	s := Sequence{prefix(t, c), prefix(t, c, ids[1])}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "ordered") {
		t.Errorf("want concurrency violation, got %v", err)
	}
}

func TestVHSAcceptsConcurrentStep(t *testing.T) {
	c, ids := diamond(t)
	// {e1} -> {e1, e2, e3}: e2 and e3 are concurrent, legal simultaneous
	// occurrence ("at the same time" in the paper).
	s := Sequence{prefix(t, c), prefix(t, c, ids[0]), prefix(t, c, ids[1], ids[2])}
	if err := s.Validate(); err != nil {
		t.Errorf("concurrent simultaneous step should be valid: %v", err)
	}
	if !s.IsValid() {
		t.Error("IsValid disagrees with Validate")
	}
}

// TestVHSTailClosure verifies the paper's tail-closure property on all
// enumerated sequences: every tail of a vhs is a vhs.
func TestVHSTailClosure(t *testing.T) {
	c, _ := diamond(t)
	EnumerateComplete(c, func(s Sequence) bool {
		for i := range s {
			if err := s[i:].Validate(); err != nil {
				t.Errorf("tail %d of %v invalid: %v", i, s, err)
			}
		}
		return true
	})
}

func TestVHSIsComplete(t *testing.T) {
	c, ids := diamond(t)
	if (Sequence{}).IsComplete() {
		t.Error("empty sequence is not complete")
	}
	if (Sequence{prefix(t, c)}).IsComplete() {
		t.Error("sequence not reaching full computation is not complete")
	}
	if (Sequence{Full(c)}).IsComplete() {
		t.Error("sequence not starting empty is not complete")
	}
	_ = ids
}

func TestEnumerateLinear(t *testing.T) {
	c, _ := diamond(t)
	n := EnumerateLinear(c, func(s Sequence) bool {
		if err := s.Validate(); err != nil {
			t.Errorf("linear sequence invalid: %v", err)
		}
		if len(s) != c.NumEvents()+1 {
			t.Errorf("linear sequence length %d, want %d", len(s), c.NumEvents()+1)
		}
		return true
	})
	// The diamond has 2 linear extensions but 3 vhs: linear semantics miss
	// the simultaneous step — the E10 ablation's point.
	if n != 2 {
		t.Errorf("linear sequences = %d, want 2", n)
	}
	if got := CountComplete(c); got != 3 {
		t.Errorf("complete vhs = %d, want 3", got)
	}
}

func TestEnumerateCompleteLimit(t *testing.T) {
	c, _ := diamond(t)
	calls := 0
	if n := EnumerateComplete(c, func(Sequence) bool { calls++; return calls < 2 }); n != 2 {
		t.Errorf("limited enumeration produced %d, want 2", n)
	}
	calls = 0
	EnumerateComplete(c, func(Sequence) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop after %d calls, want 1", calls)
	}
}

// Property: every enumerated complete sequence validates, is complete, and
// linear-extension count ≤ vhs count (linear sequences are a subset).
func TestQuickVHSProperties(t *testing.T) {
	f := func(seed int64) bool {
		c := randomComputation(seed, 6)
		ok, seen := true, 0
		vhsCount := EnumerateComplete(c, func(s Sequence) bool {
			seen++
			if s.Validate() != nil || !s.IsComplete() {
				ok = false
				return false
			}
			return seen < 500
		})
		if !ok {
			return false
		}
		lin := 0
		linCount := EnumerateLinear(c, func(Sequence) bool { lin++; return lin < 500 })
		if vhsCount < 500 && linCount < 500 && linCount > vhsCount {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
