package lint

import (
	"slices"

	"gem/internal/thread"
)

// The static deadlock analysis (GEM010) builds a wait-for graph over the
// (element, class) pairs and looks for cycles that mix the two kinds of
// mandatory waits GEM has:
//
//   - constraint waits: a PREREQ-shaped restriction with a uniquely
//     resolved single source forces every target event to wait for a
//     prior source event — edge target → source;
//   - thread waits: a thread path (c0 :: c1 :: …) forces each ci+1 event
//     on an instance to follow the instance's ci event — edge ci+1 → ci.
//
// A strongly connected component containing at least one edge of each
// kind is a circular wait no scheduler can break: the prerequisite
// demands an event from later in some thread before an earlier stage of
// another (or the same) chain can proceed — the paper's §4
// mutual-exclusion and priority examples gone wrong. Pure constraint
// cycles are GEM004's business and are not re-reported here; pure thread
// "cycles" (a path revisiting a class) are legitimate iteration.
//
// The graph itself is the shared WaitGraph (waitfor.go), which the Go
// front end (internal/gofront) reuses for its GEM014–GEM016 analyses.
const (
	waitKindConstraint = iota
	waitKindThread
)

func (a *analysis) checkDeadlock(g *pairGraph) {
	wg := NewWaitGraph(len(g.pairs))
	for _, e := range g.edges {
		// Only a single source pair forces the wait (a PREREQ between
		// uniquely resolved classes); a choice set can be satisfied
		// off-cycle, and a doomed constraint's edge has no source.
		if len(e.sources) != 1 {
			continue
		}
		src, t := e.sources[0], e.target
		if t == src || !a.enablePossible(g.pairs[src], g.pairs[t]) {
			continue
		}
		ec := a.cons[e.con]
		wg.AddEdge(WaitEdge{
			From: t, To: src, Kind: waitKindConstraint, Rank: e.con,
			Label: g.pairs[t].String() + " waits for prior " + g.pairs[src].String() +
				" (" + restrictionSubject(ec.Owner, ec.Restriction) + ")",
		})
	}
	paths := thread.PathsByType(a.s.Threads())
	names := make([]string, 0, len(paths))
	for name := range paths {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, path := range paths[name] {
			for i := 0; i+1 < len(path); i++ {
				from, to := g.resolve(path[i+1]), g.resolve(path[i])
				// Only uniquely resolved stages give a mandatory wait; an
				// ambiguous reference lets the instance advance via an
				// alternative pair.
				if len(from) != 1 || len(to) != 1 || from[0] == to[0] {
					continue
				}
				wg.AddEdge(WaitEdge{
					From: from[0], To: to[0], Kind: waitKindThread, Rank: -1,
					Label: g.pairs[from[0]].String() + " follows " + g.pairs[to[0]].String() +
						" on thread " + name,
				})
			}
		}
	}

	for _, cycle := range wg.Cycles() {
		if !cycle.HasKind(waitKindThread) || !cycle.HasKind(waitKindConstraint) {
			continue
		}
		// Anchor the diagnostic at the first (lowest-index) restriction
		// participating in the cycle.
		ec := a.cons[cycle.MinRankOfKind(waitKindConstraint)]
		a.warnAt(a.posOf(inRestriction, ec.Restriction), CodeDeadlock,
			restrictionSubject(ec.Owner, ec.Restriction),
			"possible static deadlock: %s", cycle.Describe())
	}
}
