package lint

import (
	"strings"

	"gem/internal/order"
)

// This file holds the wait-for graph machinery behind GEM010 in a form
// other front ends can reuse. A WaitGraph is a directed graph of
// mandatory waits — an edge From → To reads "From cannot proceed until To
// has happened" — with caller-defined edge kinds. Circular waits are the
// strongly connected components with at least two vertices; callers
// classify them by the kinds of edges they contain (GEM010 demands a mix
// of constraint and thread waits, the Go front end a channel or
// WaitGroup wait closing a program-order chain) and render them with the
// deterministic cycle walk Describe provides.

// WaitEdge is one mandatory wait.
type WaitEdge struct {
	From, To int
	// Kind is a caller-defined edge classification; cycles are reported
	// or suppressed based on which kinds participate.
	Kind int
	// Rank breaks ties in the deterministic cycle walk: among edges out
	// of one vertex with the same To, the lowest Rank wins.
	Rank int
	// Label renders this wait inside a cycle description, e.g.
	// "a.Go waits for prior b.Go (restriction \"r1\" of x)".
	Label string
}

// WaitGraph is a set of mandatory waits over vertices 0..n-1.
type WaitGraph struct {
	n     int
	edges []WaitEdge
}

// NewWaitGraph returns an empty graph over n vertices.
func NewWaitGraph(n int) *WaitGraph { return &WaitGraph{n: n} }

// AddEdge records one wait. Out-of-range endpoints panic, mirroring
// order.DAG.
func (g *WaitGraph) AddEdge(e WaitEdge) { g.edges = append(g.edges, e) }

// WaitCycle is one circular wait: the vertices of a strongly connected
// component (sorted ascending) and every recorded edge internal to it.
type WaitCycle struct {
	Nodes []int
	Edges []WaitEdge
}

// HasKind reports whether any edge of the cycle has the given kind.
func (c *WaitCycle) HasKind(kind int) bool {
	for _, e := range c.Edges {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// MinRankOfKind returns the lowest Rank among edges of the given kind,
// or -1 when the cycle has none. GEM010 anchors its diagnostic at the
// lowest-index constraint this way.
func (c *WaitCycle) MinRankOfKind(kind int) int {
	best := -1
	for _, e := range c.Edges {
		if e.Kind == kind && (best < 0 || e.Rank < best) {
			best = e.Rank
		}
	}
	return best
}

// Walk returns one concrete cycle inside the component as an edge
// sequence, chosen deterministically: starting from the smallest vertex,
// each step follows the edge with the lowest (To, Rank). The walk stops
// when it would revisit a vertex, so the result is a simple path closing
// the cycle.
func (c *WaitCycle) Walk() []WaitEdge {
	next := make(map[int]WaitEdge, len(c.Nodes))
	for _, e := range c.Edges {
		cur, ok := next[e.From]
		if !ok || e.To < cur.To || (e.To == cur.To && e.Rank < cur.Rank) {
			next[e.From] = e
		}
	}
	var out []WaitEdge
	seen := map[int]bool{}
	for v := c.Nodes[0]; !seen[v]; {
		seen[v] = true
		e, ok := next[v]
		if !ok {
			break
		}
		out = append(out, e)
		v = e.To
	}
	return out
}

// Describe renders the deterministic walk as "label; label; …".
func (c *WaitCycle) Describe() string {
	var parts []string
	for _, e := range c.Walk() {
		parts = append(parts, e.Label)
	}
	return strings.Join(parts, "; ")
}

// Cycles returns every circular wait — the strongly connected components
// with at least two vertices — in deterministic order (by smallest
// vertex, the order order.DAG.SCC already guarantees). Self-loop edges
// alone do not form a component here; callers that need them (a wait
// that names itself) must detect them before adding the edge.
func (g *WaitGraph) Cycles() []WaitCycle {
	d := order.NewDAG(g.n)
	for _, e := range g.edges {
		d.AddEdge(e.From, e.To)
	}
	var out []WaitCycle
	for _, comp := range d.SCC() {
		if len(comp) < 2 {
			continue
		}
		in := make(map[int]bool, len(comp))
		for _, v := range comp {
			in[v] = true
		}
		c := WaitCycle{Nodes: comp}
		for _, e := range g.edges {
			if in[e.From] && in[e.To] {
				c.Edges = append(c.Edges, e)
			}
		}
		out = append(out, c)
	}
	return out
}
