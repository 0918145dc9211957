// Package race is the static data-race pass over gofront-extracted
// models. The paper's central object — a computation as a partial order
// whose incomparable events may overlap in time — is exactly the
// may-happen-in-parallel relation a race detector needs: two operations
// race when they are incomparable in the extracted order, conflict on
// the same object, and no lock separates them. The pass reuses the same
// concurrency-row machinery (core.Computation.Concurrency, bitset
// reachability over the enable-edge DAG) the lattice engine uses, so
// every channel pairing, WaitGroup join, and lock region gofront
// derives automatically orders accesses and suppresses false reports.
//
// Three codes come out of it:
//
//	GEM018  write/write or read/write access pair: may-happen-in-parallel,
//	        at least one write, and no common lock held in write mode
//	GEM019  channel close concurrent with a send on the same channel
//	GEM020  WaitGroup.Add concurrent with Wait on the same WaitGroup
//
// Soundness with respect to the model is by construction: only pairs
// the computation reports Concurrent are ever considered, so no
// reported pair is ordered by the extracted partial order.
package race

import (
	"fmt"
	"strings"

	"gem/internal/gofront"
	"gem/internal/lint"
	"gem/internal/obs"
)

// Pair is one reported racy operation pair: two indices into the
// model's Ops, A < B in extraction order.
type Pair struct {
	Code lint.Code
	A, B int
}

// objGroup collects the per-object operation indices the detector
// pairs up, in first-seen order.
type objGroup struct {
	accesses []int // OpRead/OpWrite
	sends    []int
	closes   []int
	adds     []int
	waits    []int
}

// Pairs computes the racy pairs of one model, in deterministic
// (extraction-order) sequence.
func Pairs(m *gofront.Model) []Pair {
	_, sp := obs.StartSpan(nil, "race.collect")
	groups := make(map[string]*objGroup)
	var order []string
	group := func(op int) *objGroup {
		id, ok := m.ObjIDOf(op)
		if !ok {
			return nil
		}
		g := groups[id]
		if g == nil {
			g = &objGroup{}
			groups[id] = g
			order = append(order, id)
		}
		return g
	}
	for i, op := range m.Ops {
		g := group(i)
		if g == nil {
			continue
		}
		switch op.Kind {
		case gofront.OpRead, gofront.OpWrite:
			g.accesses = append(g.accesses, i)
		case gofront.OpSend:
			g.sends = append(g.sends, i)
		case gofront.OpClose:
			g.closes = append(g.closes, i)
		case gofront.OpAdd:
			g.adds = append(g.adds, i)
		case gofront.OpWait:
			g.waits = append(g.waits, i)
		}
	}
	sp.End()

	_, sp = obs.StartSpan(nil, "race.mhp")
	defer sp.End()
	rows := m.Comp.Concurrency()
	mhp := func(i, j int) bool {
		return rows.Has(int(m.EventOf[i]), int(m.EventOf[j]))
	}
	var pairs []Pair
	for _, id := range order {
		g := groups[id]
		// GEM018: conflicting data accesses, deduplicated to one report
		// per unordered goroutine pair (the first qualifying access pair
		// in extraction order is the witness).
		seen := make(map[[2]int]bool)
		for ai := 0; ai < len(g.accesses); ai++ {
			for bi := ai + 1; bi < len(g.accesses); bi++ {
				a, b := g.accesses[ai], g.accesses[bi]
				if m.Ops[a].Kind != gofront.OpWrite && m.Ops[b].Kind != gofront.OpWrite {
					continue
				}
				if !mhp(a, b) || lockExcluded(m, a, b) {
					continue
				}
				gp := [2]int{m.Ops[a].G, m.Ops[b].G}
				if gp[0] > gp[1] {
					gp[0], gp[1] = gp[1], gp[0]
				}
				if seen[gp] {
					continue
				}
				seen[gp] = true
				pairs = append(pairs, Pair{Code: lint.CodeDataRace, A: a, B: b})
			}
		}
		// GEM019: a close racing a send on the same channel.
		for _, c := range g.closes {
			for _, s := range g.sends {
				if mhp(c, s) {
					a, b := c, s
					if a > b {
						a, b = b, a
					}
					pairs = append(pairs, Pair{Code: lint.CodeCloseRace, A: a, B: b})
				}
			}
		}
		// GEM020: an Add racing a Wait on the same WaitGroup.
		for _, ad := range g.adds {
			for _, w := range g.waits {
				if mhp(ad, w) {
					a, b := ad, w
					if a > b {
						a, b = b, a
					}
					pairs = append(pairs, Pair{Code: lint.CodeAddWaitRace, A: a, B: b})
				}
			}
		}
	}
	obs.Count("race.pairs", int64(len(pairs)))
	return pairs
}

// lockExcluded reports whether a common lock separates two accesses: a
// mutex both locksets contain, held in write mode by at least one side.
// Two reader acquisitions of the same RWMutex do not exclude each other.
func lockExcluded(m *gofront.Model, a, b int) bool {
	for _, la := range m.Ops[a].Locks {
		for _, lb := range m.Ops[b].Locks {
			if !m.SameObj(la, lb) {
				continue
			}
			if m.Ops[la].Kind == gofront.OpLock || m.Ops[lb].Kind == gofront.OpLock {
				return true
			}
		}
	}
	return false
}

// Check runs the pass on one model and renders its findings as
// diagnostics, each carrying both access positions, the goroutine spawn
// chains, and the lockset witness.
func Check(m *gofront.Model) []lint.FileDiagnostic {
	pairs := Pairs(m)
	_, sp := obs.StartSpan(nil, "race.report")
	defer sp.End()
	var diags []lint.FileDiagnostic
	for _, p := range pairs {
		var msg string
		switch p.Code {
		case lint.CodeDataRace:
			msg = fmt.Sprintf("data race on %s: %s may happen in parallel with %s and no common lock orders them",
				m.ObjNameOf(p.A), describe(m, p.A), describe(m, p.B))
		case lint.CodeCloseRace:
			msg = fmt.Sprintf("racy close of channel %s: %s may happen in parallel with %s",
				m.ObjNameOf(p.A), describe(m, p.A), describe(m, p.B))
		case lint.CodeAddWaitRace:
			msg = fmt.Sprintf("%s.Add may run concurrently with its Wait: %s may happen in parallel with %s",
				m.ObjNameOf(p.A), describe(m, p.A), describe(m, p.B))
		}
		info, _ := lint.Info(p.Code)
		pos := m.Ops[p.A].Pos
		diags = append(diags, lint.FileDiagnostic{
			File: pos.Filename,
			Diagnostic: lint.Diagnostic{
				Code:     p.Code,
				Severity: info.Severity,
				Subject:  "goroutine " + m.Gors[m.Ops[p.A].G].Name,
				Message:  msg,
				Pos:      lint.Pos{Line: pos.Line, Col: pos.Column},
			},
		})
	}
	return diags
}

// describe renders one side of a pair: kind, position, the spawn chain
// of the goroutine running it, and its lockset (empty locksets — the
// race witness — render as "{}").
func describe(m *gofront.Model, op int) string {
	o := m.Ops[op]
	return fmt.Sprintf("the %s at %d:%d on %s holding %s",
		o.Kind, o.Pos.Line, o.Pos.Column, spawnChain(m, o.G), lockset(m, op))
}

// spawnChain renders the chain of go statements leading to a goroutine
// ("main -> main.g1 (go at 5:2)").
func spawnChain(m *gofront.Model, g int) string {
	spawn := m.Gors[g].SpawnOp
	if spawn < 0 {
		return m.Gors[g].Name
	}
	pos := m.Ops[spawn].Pos
	return fmt.Sprintf("%s -> %s (go at %d:%d)",
		spawnChain(m, m.Ops[spawn].G), m.Gors[g].Name, pos.Line, pos.Column)
}

// lockset renders the locks held at an access: "{mu}", "{rw(read)}", or
// "{}" when the access runs unprotected.
func lockset(m *gofront.Model, op int) string {
	ls := m.Ops[op].Locks
	if len(ls) == 0 {
		return "{}"
	}
	var parts []string
	for _, l := range ls {
		name := m.ObjNameOf(l)
		if m.Ops[l].Kind == gofront.OpRLock {
			name += "(read)"
		}
		parts = append(parts, name)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
