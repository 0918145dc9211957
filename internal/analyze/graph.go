package analyze

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/lint"
	"gem/internal/spec"
)

// pairGraph is the abstract enable graph the deep analyses run over. Its
// nodes are the declared (element, event-class) pairs; its edges are the
// EnableConstraints lint extracted from the restriction formulae, lowered
// onto the pairs and filtered through the Section 4 access relation. The
// graph abstracts every computation: an event of pair p can exist in a
// legal computation only if some chain of access-legal constraint edges
// grounds p in constraint-free pairs (producibility, a least fixpoint).
type pairGraph struct {
	s        *spec.Spec
	universe *core.Universe // nil when the group structure is invalid
	// dynamic is set when the spec declares the admin element: the group
	// structure may change mid-computation, so access-based pruning is
	// unsound and disabled.
	dynamic bool

	pairs []core.ClassRef
	idx   map[core.ClassRef]int

	cons       []loweredCon
	producible []bool
}

// loweredCon is one EnableConstraint resolved onto pair ids.
type loweredCon struct {
	ci      int // index into the lint Result's Constraints
	targets []int
	sources []int
	doomed  bool
	// mandatory marks constraints whose wait is forced: a single source
	// pair (PREREQ between uniquely resolved classes). Only mandatory
	// edges participate in the deadlock analysis — a choice set can be
	// satisfied off-cycle.
	mandatory bool
}

func buildPairGraph(s *spec.Spec, lr *lint.Result) *pairGraph {
	g := &pairGraph{s: s, idx: make(map[core.ClassRef]int)}
	g.universe, _ = s.Universe()
	if _, declared := s.Element(core.AdminElement); declared {
		g.dynamic = true
	}
	g.pairs = s.ClassPairs()
	for i, p := range g.pairs {
		g.idx[p] = i
	}
	for ci, c := range lr.Constraints {
		lc := loweredCon{ci: ci, targets: g.resolve(c.Target), doomed: c.Doomed}
		valid := len(lc.targets) > 0
		for _, src := range c.Sources {
			ids := g.resolve(src)
			if len(ids) == 0 {
				valid = false
			}
			lc.sources = append(lc.sources, ids...)
		}
		if !valid {
			// Dangling references: the defect is GEM001/GEM002 territory
			// and the constraint is vacuous, not part of the graph.
			continue
		}
		lc.sources = dedupInts(lc.sources)
		lc.mandatory = len(lc.sources) == 1
		g.cons = append(g.cons, lc)
	}
	g.computeProducibility()
	return g
}

// resolve returns the pair ids a class reference may denote, in pair
// order. Empty when the reference dangles.
func (g *pairGraph) resolve(ref core.ClassRef) []int {
	if ref.Element != "" && ref.Class != "" {
		if i, ok := g.idx[core.Ref(ref.Element, ref.Class)]; ok {
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

func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// edgeOK reports whether the access relation admits an enable edge from
// source pair s to target pair t. With dynamic group changes declared,
// every edge is assumed possible.
func (g *pairGraph) edgeOK(s, t int) bool {
	if g.dynamic || g.universe == nil {
		return true
	}
	return g.universe.MayEnable(g.pairs[s].Element, g.pairs[t].Element, g.pairs[t].Class)
}

// computeProducibility runs the least fixpoint: a pair with no
// constraint targeting it is producible outright (its events need no
// particular enabler); a constrained pair becomes producible when every
// constraint targeting it can draw on a producible source over an
// access-legal edge. Doomed constraints (GEM004/GEM005) never admit
// events of their targets, so their targets stay unproducible.
func (g *pairGraph) computeProducibility() {
	n := len(g.pairs)
	isTarget := make([]bool, n)
	for _, c := range g.cons {
		for _, t := range c.targets {
			isTarget[t] = true
		}
	}
	g.producible = make([]bool, n)
	for i := range g.producible {
		g.producible[i] = !isTarget[i]
	}
	for changed := true; changed; {
		changed = false
		for p := 0; p < n; p++ {
			if g.producible[p] || !isTarget[p] {
				continue
			}
			ok := true
			for _, c := range g.cons {
				if !targetsPair(c, p) {
					continue
				}
				if c.doomed {
					ok = false
					break
				}
				some := false
				for _, s := range c.sources {
					if g.producible[s] && g.edgeOK(s, p) {
						some = true
						break
					}
				}
				if !some {
					ok = false
					break
				}
			}
			if ok {
				g.producible[p] = true
				changed = true
			}
		}
	}
}

func targetsPair(c loweredCon, p int) bool {
	for _, t := range c.targets {
		if t == p {
			return true
		}
	}
	return false
}

// unproducible reports whether every pair the reference resolves to is
// statically unproducible — no legal computation contains an event
// matching the reference. False for dangling references (no pairs).
func (g *pairGraph) unproducible(ref core.ClassRef) bool {
	ids := g.resolve(ref)
	if len(ids) == 0 {
		return false
	}
	for _, id := range ids {
		if g.producible[id] {
			return false
		}
	}
	return true
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
func (a *deepAnalysis) checkUnreachable(g *pairGraph, lr *lint.Result) {
	for p, prod := range g.producible {
		if prod {
			continue
		}
		anyDoomed := false
		first := -1
		for _, c := range g.cons {
			if !targetsPair(c, p) {
				continue
			}
			if c.doomed {
				anyDoomed = true
				break
			}
			if first < 0 || c.ci < first {
				first = c.ci
			}
		}
		if anyDoomed || first < 0 {
			continue
		}
		ec := lr.Constraints[first]
		a.errAt(a.restrictionPos(ec.Restriction), lint.CodeUnreachable,
			restrictionSubject(ec.Owner, ec.Restriction),
			"no legal enable chain can produce an event of %s: every required enabler in %s is itself unproducible",
			g.pairs[p], sourcesString(g, g.consTargeting(p)))
	}
}

// consTargeting returns the non-doomed lowered constraints targeting p.
func (g *pairGraph) consTargeting(p int) []loweredCon {
	var out []loweredCon
	for _, c := range g.cons {
		if targetsPair(c, p) && !c.doomed {
			out = append(out, c)
		}
	}
	return out
}

// sourcesString renders the union of source pairs of the constraints,
// for the GEM011 message.
func sourcesString(g *pairGraph, cons []loweredCon) string {
	var ids []int
	for _, c := range cons {
		ids = append(ids, c.sources...)
	}
	ids = dedupInts(ids)
	insertSortedInts(ids)
	refs := make([]core.ClassRef, len(ids))
	for i, id := range ids {
		refs[i] = g.pairs[id]
	}
	if len(refs) == 1 {
		return refs[0].String()
	}
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func insertSortedInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func restrictionSubject(owner, name string) string {
	return fmt.Sprintf("restriction %q of %s", name, owner)
}
