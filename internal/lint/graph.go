package lint

import (
	"slices"

	"gem/internal/core"
)

// pairGraph is the abstract enable graph the deep analyses run over. Its
// nodes are the declared (element, event-class) pairs; its edges are the
// enable constraints the shallow passes extracted from the restriction
// formulae, lowered onto the pairs and filtered through the Section 4
// access relation. The graph abstracts every computation: an event of
// pair p can exist in a legal computation only if some chain of
// access-legal constraint edges grounds p in constraint-free pairs
// (producibility, the least fixpoint grounded computes).
type pairGraph struct {
	pairs []core.ClassRef
	idx   map[core.ClassRef]int
	// edges holds one edge per (constraint, target pair), in constraint
	// order, with the constraint's source pairs sorted and deduplicated.
	// A doomed constraint (GEM004/GEM005) never admits events of its
	// targets, so its edges have no sources.
	edges      []groundEdge
	producible []bool
}

func (a *analysis) buildPairGraph() *pairGraph {
	g := &pairGraph{pairs: a.s.ClassPairs(), idx: make(map[core.ClassRef]int)}
	for i, p := range g.pairs {
		g.idx[p] = i
	}
	for ci, c := range a.cons {
		targets := g.resolve(c.Target)
		valid := len(targets) > 0
		var sources []int
		for _, src := range c.Sources {
			ids := g.resolve(src)
			valid = valid && len(ids) > 0
			sources = append(sources, ids...)
		}
		if !valid {
			// Dangling references: the defect is GEM001/GEM002 territory
			// and the constraint is vacuous, not part of the graph.
			continue
		}
		if c.Doomed {
			sources = nil
		}
		slices.Sort(sources)
		sources = slices.Compact(sources)
		for _, t := range targets {
			g.edges = append(g.edges, groundEdge{con: ci, target: t, sources: sources})
		}
	}
	g.producible = grounded(len(g.pairs), g.edges, func(s, t int) bool {
		return a.enablePossible(g.pairs[s], g.pairs[t])
	})
	return g
}

// resolve returns the pair ids a class reference may denote, in pair
// order. Empty when the reference dangles.
func (g *pairGraph) resolve(ref core.ClassRef) []int {
	if ref.Element != "" && ref.Class != "" {
		if i, ok := g.idx[ref]; ok {
			return []int{i}
		}
		return nil
	}
	var out []int
	for i, p := range g.pairs {
		if ref.Element != "" && p.Element != ref.Element {
			continue
		}
		if ref.Class != "" && p.Class != ref.Class {
			continue
		}
		out = append(out, i)
	}
	return out
}

// unproducible reports whether every pair the reference resolves to is
// statically unproducible — no legal computation contains an event
// matching the reference. False for dangling references (no pairs).
func (g *pairGraph) unproducible(ref core.ClassRef) bool {
	ids := g.resolve(ref)
	return len(ids) > 0 && !slices.ContainsFunc(ids, func(id int) bool { return g.producible[id] })
}

// checkUnreachable reports GEM011 for every unproducible pair whose
// defect is transitive: no constraint targeting it is itself doomed
// (those are already GEM004/GEM005), yet producibility cannot ground it
// because its enablers are unproducible further up the chain.
//
// GEM011 deliberately does NOT doom the constraints involved: "no legal
// computation contains pair p" refutes the whole specification's
// satisfiability, not the individual restriction on an arbitrary
// (possibly illegal) computation — an event of p with a proper enabler
// satisfies the p-restriction even though the enabler is illegal.
func (a *analysis) checkUnreachable(g *pairGraph) {
	for p, prod := range g.producible {
		if prod {
			continue
		}
		first, doomed := -1, false
		var sources []int
		for _, e := range g.edges {
			if e.target != p {
				continue
			}
			if doomed = len(e.sources) == 0; doomed {
				break
			}
			if first < 0 {
				first = e.con
			}
			sources = append(sources, e.sources...)
		}
		if doomed || first < 0 {
			continue
		}
		slices.Sort(sources)
		sources = slices.Compact(sources)
		refs := make([]core.ClassRef, len(sources))
		for i, s := range sources {
			refs[i] = g.pairs[s]
		}
		ec := a.cons[first]
		a.errAt(a.posOf(inRestriction, ec.Restriction), CodeUnreachable,
			restrictionSubject(ec.Owner, ec.Restriction),
			"no legal enable chain can produce an event of %s: every required enabler in %s is itself unproducible",
			g.pairs[p], refsString(refs))
	}
}
