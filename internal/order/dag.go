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

// topoSort orders the vertices of the graph on 0..n-1 whose edges out of
// v succ(v, buf) appends to buf topologically (Kahn, sources in
// increasing order, first found first expanded), or returns ErrCycle. It
// also returns an empty buffer for further calls of succ.
func topoSort(n int, succ func(v int, buf []int) []int) (topo, buf []int, err error) {
	work := make([]int, 3*n)
	indeg := work[:n]
	topo, buf = work[n:n:2*n], work[2*n:2*n]
	for v := 0; v < n; v++ {
		buf = succ(v, buf[:0])
		for _, w := range buf {
			indeg[w]++
		}
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			topo = append(topo, v)
		}
	}
	// topo doubles as the FIFO queue: topo[head:] is still to be expanded.
	for head := 0; head < len(topo); head++ {
		buf = succ(topo[head], buf[:0])
		for _, w := range buf {
			if indeg[w]--; indeg[w] == 0 {
				topo = append(topo, w)
			}
		}
	}
	if len(topo) != n {
		return nil, nil, ErrCycle
	}
	return topo, buf[:0], nil
}

// Closure returns reach, where row v is the set of vertices strictly
// reachable from v in the graph on vertices 0..n-1 whose edges out of v
// succ(v, buf) appends to buf, and preds, its inverse, where row v is the
// set of vertices that reach v; or ErrCycle if some vertex reaches
// itself. It orders the vertices topologically, then takes them in
// reverse, so each vertex's row is the union of its successors' rows and
// the successors themselves. succ must list the same edges on every
// call; repeats are harmless. The two relations share one array.
func Closure(n int, succ func(v int, buf []int) []int) (reach, preds Rows, err error) {
	topo, buf, err := topoSort(n, succ)
	if err != nil {
		return Rows{}, Rows{}, err
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, 2*n*w)
	reach = Rows{words: words[: n*w : n*w], n: n, stride: w}
	preds = Rows{words: words[n*w:], n: n, stride: w}
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		row := reach.Row(v)
		buf = succ(v, buf[:0])
		for _, w := range buf {
			row.Set(w)
			row.OrWith(reach.Row(w))
		}
	}
	invert(reach, preds)
	return reach, preds, nil
}

// Invert returns preds, where row v of preds is the set of vertices that
// reach v, given the forward reach rows.
func Invert(reach Rows) Rows {
	preds := NewRows(reach.n)
	invert(reach, preds)
	return preds
}

// invert sets in preds, an empty relation the size of reach, row v to
// the vertices whose reach rows hold v.
func invert(reach, preds Rows) {
	for u := 0; u < reach.n; u++ {
		reach.Row(u).ForEach(func(v int) bool {
			preds.Row(v).Set(u)
			return true
		})
	}
}

// LinearExtensions enumerates every linear extension of the partial order
// whose strict reachability is reach, invoking fn with each complete
// ordering. The callback's slice is reused between invocations; copy it if
// retained. If fn returns false, enumeration stops. Returns the number of
// extensions produced.
func LinearExtensions(reach Rows, fn func(ext []int) bool) int {
	n := reach.n
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
			if !preds.Row(v).SubsetOf(placed) {
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
