package order

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// TransitiveClosure is the reach half of Closure over d's edges.
func (d *DAG) TransitiveClosure() (Rows, error) {
	reach, _, err := Closure(d.n, func(v int, buf []int) []int { return append(buf, d.successors(v)...) })
	return reach, err
}

// diamond builds the paper's Section 7 example: e1 enables e2 and e3, each
// of which enables e4 (vertex i = event e(i+1)).
func diamond() *DAG {
	d := NewDAG(4)
	d.AddEdge(0, 1)
	d.AddEdge(0, 2)
	d.AddEdge(1, 3)
	d.AddEdge(2, 3)
	return d
}

// TestClosureCycle: a cycle through three vertices has no closure.
func TestClosureCycle(t *testing.T) {
	d := NewDAG(3)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 0)
	if _, err := d.TransitiveClosure(); !errors.Is(err, ErrCycle) {
		t.Errorf("want ErrCycle, got %v", err)
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	d := NewDAG(2)
	d.AddEdge(0, 0)
	if _, err := d.TransitiveClosure(); !errors.Is(err, ErrCycle) {
		t.Errorf("self loop: want ErrCycle, got %v", err)
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	d := NewDAG(2)
	d.AddEdge(0, 1)
	d.AddEdge(0, 1)
	if got := len(d.successors(0)); got != 1 {
		t.Errorf("duplicate edge stored: %d successors", got)
	}
}

func TestTransitiveClosureDiamond(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{1, 2, 3}, // from e1
		{3},       // from e2
		{3},       // from e3
		{},        // from e4
	}
	for v, members := range want {
		got := reach.Row(v).Members()
		if len(members) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, members) {
			t.Errorf("reach[%d] = %v, want %v", v, got, members)
		}
	}
}

func TestInvert(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	preds := Invert(reach)
	if got, want := preds.Row(3).Members(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("preds[3] = %v, want %v", got, want)
	}
	if preds.Row(0).Count() != 0 {
		t.Errorf("preds[0] = %v, want empty", preds.Row(0).Members())
	}
}

func TestLinearExtensionsDiamond(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	var exts [][]int
	n := LinearExtensions(reach, func(ext []int) bool {
		cp := make([]int, len(ext))
		copy(cp, ext)
		exts = append(exts, cp)
		return true
	})
	// The diamond has exactly two linear extensions.
	if n != 2 || len(exts) != 2 {
		t.Fatalf("got %d extensions, want 2", n)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i][1] < exts[j][1] })
	if !reflect.DeepEqual(exts[0], []int{0, 1, 2, 3}) || !reflect.DeepEqual(exts[1], []int{0, 2, 1, 3}) {
		t.Errorf("extensions = %v", exts)
	}
}

func TestLinearExtensionsLimit(t *testing.T) {
	// Antichain of 5 vertices: 5! = 120 extensions; the callback caps it.
	reach := NewRows(5)
	calls := 0
	n := LinearExtensions(reach, func([]int) bool { calls++; return calls < 7 })
	if n != 7 {
		t.Errorf("limited enumeration produced %d, want 7", n)
	}
	n = LinearExtensions(reach, func([]int) bool { return true })
	if n != 120 {
		t.Errorf("full enumeration produced %d, want 120", n)
	}
}

func TestLinearExtensionsEarlyStop(t *testing.T) {
	reach := NewRows(4)
	calls := 0
	LinearExtensions(reach, func([]int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
}

func TestAntichainsDiamond(t *testing.T) {
	reach, err := diamond().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	cmp := func(u, v int) bool { return reach.Row(u).Has(v) || reach.Row(v).Has(u) }
	var chains [][]int
	Antichains([]int{0, 1, 2, 3}, cmp, func(chain []int) bool {
		cp := make([]int, len(chain))
		copy(cp, chain)
		chains = append(chains, cp)
		return true
	})
	// Non-empty antichains of the diamond: {0},{1},{2},{3},{1,2}.
	if len(chains) != 5 {
		t.Fatalf("got %d antichains (%v), want 5", len(chains), chains)
	}
	found := false
	for _, ch := range chains {
		if reflect.DeepEqual(ch, []int{1, 2}) {
			found = true
		}
	}
	if !found {
		t.Error("antichain {1,2} (the concurrent pair e2,e3) not found")
	}
}

// randomDAG builds a DAG by only adding forward edges in a random vertex
// permutation, guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int, p float64) *DAG {
	perm := rng.Perm(n)
	d := NewDAG(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				d.AddEdge(perm[i], perm[j])
			}
		}
	}
	return d
}

// Property: the transitive closure is transitive and irreflexive — the GEM
// legality requirement on the temporal order.
func TestQuickClosureIsStrictPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := randomDAG(rng, n, 0.3)
		reach, err := d.TransitiveClosure()
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			if reach.Row(u).Has(u) {
				return false // not irreflexive
			}
			ok := true
			reach.Row(u).ForEach(func(v int) bool {
				if !reach.Row(v).SubsetOf(reach.Row(u)) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false // not transitive
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every linear extension respects the partial order.
func TestQuickLinearExtensionsRespectOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		d := randomDAG(rng, n, 0.4)
		reach, err := d.TransitiveClosure()
		if err != nil {
			return false
		}
		ok, seen := true, 0
		LinearExtensions(reach, func(ext []int) bool {
			seen++
			pos := make([]int, n)
			for i, v := range ext {
				pos[v] = i
			}
			for u := 0; u < n; u++ {
				reach.Row(u).ForEach(func(v int) bool {
					if pos[u] >= pos[v] {
						ok = false
						return false
					}
					return true
				})
			}
			return ok && seen < 50
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReachesDFSMatchesClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := randomDAG(rng, n, 0.3)
		reach, err := d.TransitiveClosure()
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if d.ReachesDFS(u, v) != reach.Row(u).Has(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReachesDFSSelf(t *testing.T) {
	d := NewDAG(2)
	d.AddEdge(0, 1)
	if d.ReachesDFS(0, 0) {
		t.Error("strict reachability excludes the vertex itself")
	}
}
