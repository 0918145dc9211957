package order

import (
	"errors"
	"fmt"
	"slices"
)

// ErrCycle is returned when a supposed DAG contains a cycle. In GEM terms a
// cycle means the temporal order would not be irreflexive, so the
// computation is illegal.
var ErrCycle = errors.New("order: graph contains a cycle")

// DAG is a directed graph over vertices 0..n-1 expected to be acyclic.
// Edges are kept in one flat list and indexed by source on first query
// (compressed sparse rows), so a graph costs a few allocations, not one
// per vertex.
type DAG struct {
	n     int
	edges [][2]int
	// v's successors are succ[start[v]:start[v+1]], in insertion order
	// without duplicates; start is nil until index runs.
	start []int
	succ  []int
}

// NewDAG creates a graph with n vertices and no edges.
func NewDAG(n int) *DAG {
	return &DAG{n: n}
}

// Grow makes room for m more edges, so a caller that knows how many it
// will add allocates the edge list once.
func (d *DAG) Grow(m int) {
	if m > cap(d.edges)-len(d.edges) {
		d.edges = append(make([][2]int, 0, len(d.edges)+m), d.edges...)
	}
}

// AddEdge adds a directed edge from u to v. Duplicate edges are ignored.
func (d *DAG) AddEdge(u, v int) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("order: AddEdge(%d,%d) out of range [0,%d)", u, v, d.n))
	}
	d.edges = append(d.edges, [2]int{u, v})
	d.start = nil
}

// successors returns v's direct successors.
func (d *DAG) successors(v int) []int {
	if d.start == nil {
		d.index()
	}
	return d.succ[d.start[v]:d.start[v+1]]
}

// index sorts the edges into per-source rows of succ by counting, then
// drops repeated edges in place.
func (d *DAG) index() {
	start := make([]int, d.n+1)
	for _, e := range d.edges {
		start[e[0]]++
	}
	for v := 1; v <= d.n; v++ {
		start[v] += start[v-1]
	}
	succ := make([]int, len(d.edges))
	for i := len(d.edges) - 1; i >= 0; i-- {
		u := d.edges[i][0]
		start[u]--
		succ[start[u]] = d.edges[i][1]
	}
	kept, from := 0, 0
	for v := 0; v < d.n; v++ {
		to := start[v+1]
		start[v] = kept
		for _, w := range succ[from:to] {
			if !slices.Contains(succ[start[v]:kept], w) {
				succ[kept] = w
				kept++
			}
		}
		from = to
	}
	start[d.n] = kept
	d.start, d.succ = start, succ[:kept]
}

// TopoSort returns a topological ordering of the vertices, or ErrCycle.
func (d *DAG) TopoSort() ([]int, error) {
	indeg := make([]int, d.n)
	for v := 0; v < d.n; v++ {
		for _, w := range d.successors(v) {
			indeg[w]++
		}
	}
	// out doubles as the FIFO queue: out[head:] is still to be expanded.
	out := make([]int, 0, d.n)
	for v := 0; v < d.n; v++ {
		if indeg[v] == 0 {
			out = append(out, v)
		}
	}
	for head := 0; head < len(out); head++ {
		for _, w := range d.successors(out[head]) {
			indeg[w]--
			if indeg[w] == 0 {
				out = append(out, w)
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
// The rows share one array (NewRows).
func (d *DAG) TransitiveClosure() ([]Bitset, error) {
	topo, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	reach := NewRows(d.n)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range d.successors(v) {
			reach[v].Set(w)
			reach[v].OrWith(reach[w])
		}
	}
	return reach, nil
}

// Invert returns preds, where preds[v] is the set of vertices that reach v,
// given the forward reach sets. The rows share one array (NewRows).
func Invert(reach []Bitset) []Bitset {
	n := len(reach)
	preds := NewRows(n)
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
// retained. If fn returns false, enumeration stops. Returns the number of
// extensions produced.
func LinearExtensions(reach []Bitset, fn func(ext []int) bool) int {
	n := len(reach)
	preds := Invert(reach)
	placed := NewBitset(n)
	ext := make([]int, 0, n)
	count := 0
	var rec func() bool
	rec = func() bool {
		if len(ext) == n {
			count++
			return fn(ext)
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
		for _, w := range d.successors(x) {
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
