package order

import (
	"errors"
	"fmt"
)

// ErrCycle is returned when a supposed DAG contains a cycle. In GEM terms a
// cycle means the temporal order would not be irreflexive, so the
// computation is illegal.
var ErrCycle = errors.New("order: graph contains a cycle")

// DAG is a directed graph over vertices 0..n-1 expected to be acyclic.
// Edges are stored as adjacency lists.
type DAG struct {
	n   int
	adj [][]int
}

// NewDAG creates a graph with n vertices and no edges.
func NewDAG(n int) *DAG {
	return &DAG{n: n, adj: make([][]int, n)}
}

// AddEdge adds a directed edge from u to v. Duplicate edges are ignored.
func (d *DAG) AddEdge(u, v int) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("order: AddEdge(%d,%d) out of range [0,%d)", u, v, d.n))
	}
	for _, w := range d.adj[u] {
		if w == v {
			return
		}
	}
	d.adj[u] = append(d.adj[u], v)
}

// TopoSort returns a topological ordering of the vertices, or ErrCycle.
func (d *DAG) TopoSort() ([]int, error) {
	indeg := make([]int, d.n)
	for _, succs := range d.adj {
		for _, v := range succs {
			indeg[v]++
		}
	}
	queue := make([]int, 0, d.n)
	for v := 0; v < d.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	out := make([]int, 0, d.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, w := range d.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(out) != d.n {
		return nil, ErrCycle
	}
	return out, nil
}

// TransitiveClosure returns reach, where reach[v] is the set of vertices
// strictly reachable from v (v itself is excluded unless v lies on a cycle,
// in which case ErrCycle is returned). Computed in reverse topological
// order so each vertex's reach set is the union of its successors' sets.
func (d *DAG) TransitiveClosure() ([]Bitset, error) {
	topo, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	reach := make([]Bitset, d.n)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		r := NewBitset(d.n)
		for _, w := range d.adj[v] {
			r.Set(w)
			r.OrWith(reach[w])
		}
		reach[v] = r
	}
	return reach, nil
}

// Invert returns preds, where preds[v] is the set of vertices that reach v,
// given the forward reach sets.
func Invert(reach []Bitset) []Bitset {
	n := len(reach)
	preds := make([]Bitset, n)
	for v := 0; v < n; v++ {
		preds[v] = NewBitset(n)
	}
	for u := 0; u < n; u++ {
		reach[u].ForEach(func(v int) bool {
			preds[v].Set(u)
			return true
		})
	}
	return preds
}

// LinearExtensions enumerates every linear extension of the partial order
// whose strict reachability is reach, invoking fn with each complete
// ordering. The callback's slice is reused between invocations; copy it if
// retained. If fn returns false or limit (>0) extensions have been
// produced, enumeration stops. Returns the number of extensions produced.
func LinearExtensions(reach []Bitset, limit int, fn func(ext []int) bool) int {
	n := len(reach)
	preds := Invert(reach)
	placed := NewBitset(n)
	ext := make([]int, 0, n)
	count := 0
	var rec func() bool
	rec = func() bool {
		if len(ext) == n {
			count++
			if !fn(ext) {
				return false
			}
			return limit <= 0 || count < limit
		}
		for v := 0; v < n; v++ {
			if placed.Has(v) {
				continue
			}
			if !preds[v].SubsetOf(placed) {
				continue
			}
			placed.Set(v)
			ext = append(ext, v)
			ok := rec()
			ext = ext[:len(ext)-1]
			placed.Clear(v)
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
	return count
}

// Antichains enumerates every non-empty antichain (set of pairwise
// incomparable vertices) among the candidate set, given the symmetric
// comparability test cmp(u,v) (true when u and v are ordered either way).
// fn receives each antichain as a reused slice. Enumeration stops early if
// fn returns false. Returns the number produced.
func Antichains(candidates []int, cmp func(u, v int) bool, fn func(chain []int) bool) int {
	var cur []int
	count := 0
	var rec func(start int) bool
	rec = func(start int) bool {
		for idx := start; idx < len(candidates); idx++ {
			v := candidates[idx]
			compatible := true
			for _, u := range cur {
				if cmp(u, v) {
					compatible = false
					break
				}
			}
			if !compatible {
				continue
			}
			cur = append(cur, v)
			count++
			if !fn(cur) {
				return false
			}
			if !rec(idx + 1) {
				return false
			}
			cur = cur[:len(cur)-1]
		}
		return true
	}
	rec(0)
	return count
}

// ReachesDFS reports whether v is strictly reachable from u by on-demand
// depth-first search, without materializing the transitive closure. It
// exists as the baseline for the closure-representation ablation: the
// GEM temporal order is queried many times per event pair (legality,
// histories, every restriction), which is why Computation precomputes
// bitset reachability instead.
func (d *DAG) ReachesDFS(u, v int) bool {
	if u == v {
		return false
	}
	seen := make([]bool, d.n)
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.adj[x] {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}
