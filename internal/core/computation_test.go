package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildDiamond constructs the paper's Section 7 computation: four events at
// four distinct elements with e1 ⊳ e2, e1 ⊳ e3, e2 ⊳ e4, e3 ⊳ e4.
func buildDiamond(t *testing.T) (*Computation, [4]EventID) {
	t.Helper()
	b := NewBuilder()
	var ids [4]EventID
	for i := 0; i < 4; i++ {
		ids[i] = b.Event("EL"+string(rune('1'+i)), "E", Params{})
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

func TestDiamondTemporalOrder(t *testing.T) {
	c, ids := buildDiamond(t)
	e1, e2, e3, e4 := ids[0], ids[1], ids[2], ids[3]

	if !c.Temporal(e1, e2) || !c.Temporal(e1, e3) || !c.Temporal(e1, e4) {
		t.Error("e1 must temporally precede e2, e3, e4")
	}
	if !c.Temporal(e2, e4) || !c.Temporal(e3, e4) {
		t.Error("e2 and e3 must precede e4")
	}
	if !c.Concurrent(e2, e3) {
		t.Error("e2 and e3 are potentially concurrent (no observable order)")
	}
	if c.Concurrent(e1, e4) {
		t.Error("e1 and e4 are ordered, not concurrent")
	}
	if c.Concurrent(e2, e2) {
		t.Error("an event is not concurrent with itself")
	}
}

func TestElementOrderForcesSequence(t *testing.T) {
	// Two causally-unconnected assignments at the same variable element
	// must still be temporally ordered — the paper's Var example.
	b := NewBuilder()
	a1 := b.Event("Var", "Assign", NewParams(P("newval", Int(1))))
	a2 := b.Event("Var", "Assign", NewParams(P("newval", Int(2))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !c.ElemBefore(a1, a2) {
		t.Error("a1 must precede a2 in the element order")
	}
	if c.ElemBefore(a2, a1) {
		t.Error("element order must be asymmetric")
	}
	if !c.Temporal(a1, a2) {
		t.Error("element order must imply temporal order")
	}
	if c.EnablesDirect(a1, a2) {
		t.Error("element order does not imply an enable edge")
	}
}

func TestElemBeforeDifferentElements(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	y := b.Event("Y", "E", Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.ElemBefore(x, y) || c.ElemBefore(y, x) {
		t.Error("events at different elements are never element-ordered")
	}
	if !c.Concurrent(x, y) {
		t.Error("unrelated events at distinct elements are concurrent")
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	y := b.Event("Y", "E", Params{})
	b.Enable(x, y)
	b.Enable(y, x)
	if _, err := b.Build(); err == nil {
		t.Fatal("cyclic enable relation must be rejected")
	}
}

func TestBuildRejectsSelfEnable(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	b.Enable(x, x)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-enable must be rejected (enable is irreflexive)")
	}
}

func TestBuildRejectsEnableElementOrderCycle(t *testing.T) {
	// x1 =>el x2 at element X; enabling x2 |> x1 creates a temporal cycle.
	b := NewBuilder()
	x1 := b.Event("X", "E", Params{})
	x2 := b.Event("X", "E", Params{})
	b.Enable(x2, x1)
	if _, err := b.Build(); err == nil {
		t.Fatal("enable edge against element order must be rejected")
	}
}

func TestBuildRejectsUnknownEventInEdge(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	b.Enable(x, EventID(5))
	if _, err := b.Build(); err == nil {
		t.Fatal("dangling enable edge must be rejected")
	}
}

func TestEventAccessors(t *testing.T) {
	c, ids := buildDiamond(t)
	if c.NumEvents() != 4 {
		t.Fatalf("NumEvents = %d, want 4", c.NumEvents())
	}
	ev := c.Event(ids[0])
	if ev.ID() != ids[0] || ev.Element() != "EL1" || ev.Class() != "E" || ev.Seq() != 0 || ev.Params().Len() != 0 {
		t.Errorf("unexpected event %s", ev)
	}
	if got := c.EventsAt("EL1"); len(got) != 1 || got[0] != ids[0] {
		t.Errorf("EventsAt(EL1) = %v", got)
	}
	if got := c.Elements(); !reflect.DeepEqual(got, []string{"EL1", "EL2", "EL3", "EL4"}) {
		t.Errorf("Elements = %v", got)
	}
	if got := c.EventsOf(Ref("", "E")); len(got) != 4 {
		t.Errorf("EventsOf(any E) = %v, want 4 ids", got)
	}
	if got := c.EventsOf(Ref("EL2", "E")); len(got) != 1 || got[0] != ids[1] {
		t.Errorf("EventsOf(EL2.E) = %v", got)
	}
	if got := c.EventsOf(Ref("EL2", "Nope")); got != nil {
		t.Errorf("EventsOf(no match) = %v, want nil", got)
	}
}

func TestEnablersAndEnabled(t *testing.T) {
	c, ids := buildDiamond(t)
	// enablers inverts Enabled: the events that directly enable b.
	enablers := func(b EventID) []EventID {
		var out []EventID
		for i := 0; i < c.NumEvents(); i++ {
			for _, succ := range c.Enabled(EventID(i)) {
				if succ == b {
					out = append(out, EventID(i))
				}
			}
		}
		return out
	}
	if got := enablers(ids[3]); !reflect.DeepEqual(got, []EventID{ids[1], ids[2]}) {
		t.Errorf("enablers(e4) = %v", got)
	}
	if got := c.Enabled(ids[0]); !reflect.DeepEqual(got, []EventID{ids[1], ids[2]}) {
		t.Errorf("Enabled(e1) = %v", got)
	}
	if got := enablers(ids[0]); got != nil {
		t.Errorf("enablers(e1) = %v, want none", got)
	}
	if got := c.Enabled(ids[3]); len(got) != 0 {
		t.Errorf("Enabled(e4) = %v, want none", got)
	}
}

func TestDuplicateEnableEdgeDeduped(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	y := b.Event("Y", "E", Params{})
	b.Enable(x, y)
	b.Enable(x, y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Enabled(x)); got != 1 {
		t.Errorf("duplicate enable stored %d times", got)
	}
}

func TestThreadsOnEvents(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	b.Thread(x, "pi-1")
	b.Thread(x, "pi-1") // duplicate ignored
	b.Thread(x, "pi-2")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := c.Event(x)
	if !ev.HasThread("pi-1") || !ev.HasThread("pi-2") || ev.HasThread("pi-3") {
		t.Errorf("thread labels wrong on %s", ev)
	}
	if l := ev.Threads(); l.Len() != 2 || l.At(0) != "pi-1" || l.At(1) != "pi-2" {
		t.Errorf("labels %d, want pi-1 and pi-2 once each in labelling order", l.Len())
	}
}

func TestEventNameNotation(t *testing.T) {
	b := NewBuilder()
	b.Event("Var", "Assign", Params{})
	a2 := b.Event("Var", "Assign", NewParams(P("newval", Int(3))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Event(a2).Name(); got != "Var.Assign^1" {
		t.Errorf("Name = %q, want Var.Assign^1", got)
	}
	if got := c.Event(a2).String(); got != "Var.Assign^1(newval=3)" {
		t.Errorf("String = %q", got)
	}
}

// lone returns the one event of a computation that holds nothing else.
func lone(t *testing.T, element, class string, params Params) Event {
	t.Helper()
	b := NewBuilder()
	id := b.Event(element, class, params)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c.Event(id)
}

func TestClassRefMatching(t *testing.T) {
	e := lone(t, "db.control", "StartRead", Params{})
	tests := []struct {
		ref  ClassRef
		want bool
	}{
		{Ref("db.control", "StartRead"), true},
		{Ref("", "StartRead"), true},
		{Ref("db.control", ""), true},
		{Ref("other", "StartRead"), false},
		{Ref("db.control", "EndRead"), false},
	}
	for _, tt := range tests {
		if got := tt.ref.Matches(e); got != tt.want {
			t.Errorf("%v.Matches = %v, want %v", tt.ref, got, tt.want)
		}
	}
	if got := Ref("", "X").String(); got != "X" {
		t.Errorf("unqualified String = %q", got)
	}
	if got := Ref("EL", "X").String(); got != "EL.X" {
		t.Errorf("qualified String = %q", got)
	}
}

func TestComputationString(t *testing.T) {
	c, _ := buildDiamond(t)
	s := c.String()
	if !strings.Contains(s, "4 events") || !strings.Contains(s, "EL1.E^0") {
		t.Errorf("String output missing content:\n%s", s)
	}
}

// Property: for random DAG computations, the temporal order is exactly the
// transitive closure of enable ∪ element order, checked against a
// Floyd-Warshall reference.
func TestQuickTemporalOrderMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		nelem := 1 + rng.Intn(3)
		b := NewBuilder()
		ids := make([]EventID, n)
		elemOf := make([]int, n)
		for i := 0; i < n; i++ {
			el := rng.Intn(nelem)
			elemOf[i] = el
			ids[i] = b.Event("EL"+string(rune('A'+el)), "E", Params{})
		}
		// Forward-only enable edges keep the graph acyclic (element order
		// also runs forward in creation order).
		direct := make([][]bool, n)
		for i := range direct {
			direct[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					b.Enable(ids[i], ids[j])
					direct[i][j] = true
				}
			}
		}
		// Element order edges (consecutive same-element events).
		last := make(map[int]int)
		for i := 0; i < n; i++ {
			if prev, ok := last[elemOf[i]]; ok {
				direct[prev][i] = true
			}
			last[elemOf[i]] = i
		}
		c, err := b.Build()
		if err != nil {
			return false
		}
		// Floyd-Warshall closure.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if direct[i][k] && direct[k][j] {
						direct[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c.Temporal(ids[i], ids[j]) != direct[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickConcurrencyRowsMatchConcurrent cross-checks the memoized
// per-event concurrency rows against the pairwise Concurrent predicate on
// random computations, and verifies the rows are built exactly once.
func TestQuickConcurrencyRowsMatchConcurrent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		b := NewBuilder()
		ids := make([]EventID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.Event("EL"+string(rune('A'+rng.Intn(3))), "E", Params{})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					b.Enable(ids[i], ids[j])
				}
			}
		}
		c, err := b.Build()
		if err != nil {
			return false
		}
		rows := c.Concurrency()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rows.Row(i).Has(j) != c.Concurrent(ids[i], ids[j]) {
					return false
				}
			}
		}
		// Memoized: the same rows come back on a second call, so a bit
		// set through one shows through the other.
		again := c.Concurrency()
		again.Row(0).Set(0)
		shared := rows.Row(0).Has(0)
		again.Row(0).Clear(0)
		return shared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
