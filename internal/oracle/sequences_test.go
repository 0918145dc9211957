package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/logic"
)

// chainComp builds a random computation of up to maxN events over three
// elements, with random enable edges from earlier to later events.
func chainComp(rng *rand.Rand, maxN int) *core.Computation {
	n := 1 + rng.Intn(maxN)
	b := core.NewBuilder()
	for i := 0; i < n; i++ {
		b.Event(string(rune('A'+rng.Intn(3))), "X", core.Params{})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				b.Enable(core.EventID(i), core.EventID(j))
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func key(seq []uint64) string {
	var sb strings.Builder
	for _, h := range seq {
		fmt.Fprintf(&sb, "%x,", h)
	}
	return sb.String()
}

// TestSequencesMatchEnumerateComplete: on random computations of up to
// eight events, the oracle's complete valid history sequences, built as
// step sequences from its own order, are exactly the ones
// history.EnumerateComplete produces, each once.
func TestSequencesMatchEnumerateComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	total := 0
	for i := 0; i < 300; i++ {
		c := chainComp(rng, 8)
		want := map[string]int{}
		history.EnumerateComplete(c, func(s history.Sequence) bool {
			seq := make([]uint64, len(s))
			for k, h := range s {
				for id := 0; id < c.NumEvents(); id++ {
					if h.Has(core.EventID(id)) {
						seq[k] |= bit(id)
					}
				}
			}
			want[key(seq)]++
			return true
		})
		got := map[string]int{}
		newModel(c).sequences(func(seq []uint64) bool {
			got[key(seq)]++
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("computation %d (%s): oracle has %d sequences, EnumerateComplete %d", i, c, len(got), len(want))
		}
		for k, n := range want {
			if n != 1 || got[k] != 1 {
				t.Fatalf("computation %d (%s): sequence %s: EnumerateComplete %d times, oracle %d", i, c, k, n, got[k])
			}
		}
		total += len(want)
	}
	t.Logf("%d complete sequences over 300 computations", total)
}

// TestHistoriesAreThePrefixes: the oracle's histories are exactly the
// predecessor-closed event sets, counted by brute force over all subsets,
// and history.Count agrees.
func TestHistoriesAreThePrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		c := chainComp(rng, 8)
		m := newModel(c)
		closed := 0
		for set := uint64(0); set <= m.full; set++ {
			ok := true
			for e := range m.events {
				if set&bit(e) != 0 && m.before[e]&^set != 0 {
					ok = false
				}
			}
			if ok {
				closed++
			}
		}
		if got := len(m.histories()); got != closed || got != history.Count(c) {
			t.Fatalf("computation %s: oracle %d histories, %d closed subsets, history.Count %d", c, got, closed, history.Count(c))
		}
	}
}

// TestOrderMatchesComputation: the oracle's temporal order, derived from
// the enable edges and the element order alone, is the computation's.
func TestOrderMatchesComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		c := chainComp(rng, 10)
		m := newModel(c)
		for a := 0; a < c.NumEvents(); a++ {
			for b := 0; b < c.NumEvents(); b++ {
				if got, want := m.after[a]&bit(b) != 0, c.Temporal(core.EventID(a), core.EventID(b)); got != want {
					t.Fatalf("%s: %d ⇒ %d: oracle %v, computation %v", c, a, b, got, want)
				}
			}
		}
	}
}

// TestSizeLimitRefuses: a computation above the limits is refused with
// an error, never judged.
func TestSizeLimitRefuses(t *testing.T) {
	b := core.NewBuilder()
	for i := 0; i < MaxEvents+1; i++ {
		b.Event("A", "X", core.Params{})
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Holds(nil, c); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("%d events: err = %v, want a size refusal", MaxEvents+1, err)
	}
	// Eleven concurrent events have 2^11 histories.
	b = core.NewBuilder()
	for i := 0; i < 11; i++ {
		b.Event(fmt.Sprintf("E%d", i), "X", core.Params{})
	}
	if c, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	f := logic.Box{F: logic.TrueF{}}
	if _, err := Holds(f, c); err == nil || !strings.Contains(err.Error(), "histories") {
		t.Errorf("2^11 histories: err = %v, want a refusal", err)
	}
	// Eight concurrent events have 545,835 complete sequences.
	b = core.NewBuilder()
	for i := 0; i < 8; i++ {
		b.Event(fmt.Sprintf("E%d", i), "X", core.Params{})
	}
	if c, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Holds(f, c); err == nil || !strings.Contains(err.Error(), "sequences") {
		t.Errorf("545,835 sequences: err = %v, want a refusal", err)
	}
}
