package history

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gem/internal/core"
	"gem/internal/order"
)

// diamond builds the paper's Section 7 computation: e1 ⊳ e2, e1 ⊳ e3,
// e2 ⊳ e4, e3 ⊳ e4, each event at its own element.
func diamond(t *testing.T) (*core.Computation, [4]core.EventID) {
	t.Helper()
	b := core.NewBuilder()
	var ids [4]core.EventID
	for i := 0; i < 4; i++ {
		ids[i] = b.Event("EL"+string(rune('1'+i)), "E", core.Params{})
	}
	b.Enable(ids[0], ids[1])
	b.Enable(ids[0], ids[2])
	b.Enable(ids[1], ids[3])
	b.Enable(ids[2], ids[3])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, ids
}

// prefix returns the history made of the given events and all their
// temporal predecessors, built through FromSet.
func prefix(t *testing.T, c *core.Computation, ids ...core.EventID) History {
	t.Helper()
	set := order.NewBitset(c.NumEvents())
	for _, id := range ids {
		set.Set(int(id))
		set.OrWith(c.Preds().Row(int(id)))
	}
	h, err := FromSet(c, set)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPaperHistories reproduces the Section 7 enumeration (experiment E2):
// the histories are exactly α0={e1}, α1={e1,e2}, α2={e1,e3},
// α3={e1,e2,e3}, α4={e1,e2,e3,e4}, plus the empty prefix.
func TestPaperHistories(t *testing.T) {
	c, ids := diamond(t)
	var got []string
	n := Enumerate(c, func(h History) bool {
		got = append(got, h.Set().String())
		return true
	})
	if n != 6 {
		t.Fatalf("found %d histories (%v), want 6", n, got)
	}
	want := map[string]bool{
		"{}": true, "{0}": true, "{0, 1}": true,
		"{0, 2}": true, "{0, 1, 2}": true, "{0, 1, 2, 3}": true,
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected history %s", s)
		}
	}
	if Count(c) != 6 {
		t.Error("Count disagrees with Enumerate")
	}
	_ = ids
}

func TestHistoryConstructionAndPredicates(t *testing.T) {
	c, ids := diamond(t)
	e1, e2, e3, e4 := ids[0], ids[1], ids[2], ids[3]

	empty := prefix(t, c)
	if empty.Len() != 0 || empty.IsFull() {
		t.Error("empty history wrong")
	}
	full := Full(c)
	if !full.IsFull() || full.Len() != 4 {
		t.Error("full history wrong")
	}

	h := prefix(t, c, e2) // down-closure: {e1, e2}
	if !h.Has(e1) || !h.Has(e2) || h.Has(e3) || h.Len() != 2 {
		t.Errorf("closure = %v", h.Set().Members())
	}

	// new(e2) in {e1,e2}: nothing followed e2 yet.
	if !h.New(e2) {
		t.Error("e2 should be new in {e1,e2}")
	}
	// new(e1) is false: e2 followed it.
	if h.New(e1) {
		t.Error("e1 is not new once e2 occurred")
	}
	// new of an event not in the history is false.
	if h.New(e4) {
		t.Error("unoccurred events are never new")
	}

	// potential(e3): predecessors {e1} ⊆ h, e3 ∉ h.
	if !h.Potential(e3) {
		t.Error("e3 should be potential in {e1,e2}")
	}
	// potential(e4): predecessor e3 missing.
	if h.Potential(e4) {
		t.Error("e4 must not be potential before e3")
	}
	// potential of an occurred event is false.
	if h.Potential(e2) {
		t.Error("occurred events are not potential")
	}
}

func TestHistoryAtControlPoint(t *testing.T) {
	c, ids := diamond(t)
	e1, e2 := ids[0], ids[1]
	classE := core.Ref("EL2", "E")

	h1 := prefix(t, c, e1) // {e1}: e1 has not enabled EL2.E yet
	if !h1.At(e1, classE) {
		t.Error("e1 at EL2.E should hold in {e1}")
	}
	h2 := prefix(t, c, e2) // {e1, e2}: e1 has enabled e2
	if h2.At(e1, classE) {
		t.Error("e1 at EL2.E must fail once e2 occurred")
	}
	if h1.At(e2, classE) {
		t.Error("at is false for events that have not occurred")
	}
}

func TestFromSetRejectsNonPrefix(t *testing.T) {
	c, ids := diamond(t)
	bad := order.NewBitset(c.NumEvents())
	bad.Set(int(ids[3])) // e4 without its predecessors
	if _, err := FromSet(c, bad); err == nil {
		t.Fatal("non-prefix-closed set must be rejected")
	}
	good := order.NewBitset(c.NumEvents())
	good.Set(int(ids[0]))
	h, err := FromSet(c, good)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Has(ids[0]) || h.Len() != 1 {
		t.Error("FromSet result wrong")
	}
}

func TestPrefixAndEqual(t *testing.T) {
	c, ids := diamond(t)
	h1 := prefix(t, c, ids[0])
	h2 := prefix(t, c, ids[1])
	if !h1.PrefixOf(h2) || h2.PrefixOf(h1) {
		t.Error("prefix relation wrong")
	}
	// Equal histories are prefixes of each other.
	if same := prefix(t, c, ids[0]); !h1.PrefixOf(same) || !same.PrefixOf(h1) {
		t.Error("equality wrong")
	}
}

func TestHistoryString(t *testing.T) {
	c, ids := diamond(t)
	h := prefix(t, c, ids[0])
	if got := h.String(); !strings.Contains(got, "EL1.E^0") {
		t.Errorf("String = %q", got)
	}
	if got := prefix(t, c).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: every enumerated history is prefix-closed, and for every
// history, every frontier event (one outside it whose predecessors are
// all in it) is Potential and extending by it yields a history.
func TestQuickHistoriesArePrefixClosed(t *testing.T) {
	f := func(seed int64) bool {
		c := randomComputation(seed, 7)
		ok, seen := true, 0
		Enumerate(c, func(h History) bool {
			seen++
			if !order.IsIdeal(c.Preds(), h.Set()) {
				ok = false
				return false
			}
			for _, v := range order.MinimalOutsideAppend(c.Reach(), c.Preds(), h.Set(), nil) {
				if !h.Potential(core.EventID(v)) {
					ok = false
					return false
				}
				next := h.Set().Clone()
				next.Set(v)
				if _, err := FromSet(c, next); err != nil {
					ok = false
					return false
				}
			}
			return seen < 200
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomComputation builds a random legal computation with n events spread
// over up to 3 elements and forward-only enable edges.
func randomComputation(seed int64, maxN int) *core.Computation {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	b := core.NewBuilder()
	ids := make([]core.EventID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.Event("EL"+string(rune('A'+rng.Intn(3))), "E", core.Params{})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.Enable(ids[i], ids[j])
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}
