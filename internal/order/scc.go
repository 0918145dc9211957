package order

import (
	"cmp"
	"slices"
)

// SCC returns the strongly connected components of the graph (which,
// despite the type's name, may be cyclic — DAG is the repo's adjacency
// representation). Components are returned with vertices sorted
// ascending, ordered by their smallest vertex, so the output is
// deterministic regardless of edge insertion order. Every vertex appears
// in exactly one component; vertices on no cycle form singletons.
//
// The implementation is an iterative Tarjan (explicit stacks, no
// recursion), so it is safe on the large wait-for graphs the deep
// analyzer builds for specifications with many element/class pairs.
func (d *DAG) SCC() [][]int {
	const unvisited = -1
	index := make([]int, d.n)
	low := make([]int, d.n)
	onStack := make([]bool, d.n)
	for v := range index {
		index[v] = unvisited
	}
	var stack []int
	next := 0
	var comps [][]int

	type frame struct {
		v  int
		ei int // next adjacency index to explore
	}
	for root := 0; root < d.n; root++ {
		if index[root] != unvisited {
			continue
		}
		work := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if succ := d.successors(f.v); f.ei < len(succ) {
				w := succ[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// f.v is fully explored: pop it, propagate its lowlink, and
			// emit a component if it is a root.
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 && low[v] < low[work[len(work)-1].v] {
				low[work[len(work)-1].v] = low[v]
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				// Tarjan pops in reverse discovery order; sort for a
				// canonical presentation.
				slices.Sort(comp)
				comps = append(comps, comp)
			}
		}
	}
	// Tarjan emits components in reverse topological order; present them
	// by smallest member instead (stable across edge orderings; the
	// components are disjoint, so no two have the same one).
	slices.SortFunc(comps, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	return comps
}
