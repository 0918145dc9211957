package gofront

import (
	"fmt"

	"gem/internal/lint"
)

// The GEM013–GEM016 diagnostics are all instances of one question: can a
// mandatory wait ever be satisfied? GEM013 is the degenerate case — a
// wait with no candidate partner at all. The rest are circular waits,
// found by running the same WaitGraph machinery GEM010 uses over the
// operations: program order contributes "later waits for earlier" edges,
// the channel/WaitGroup/lock pairings contribute the cross-goroutine
// waits, and a strongly connected component mixing program order with a
// synchronization wait is a schedule no scheduler can complete. The kind
// of synchronization edge in the cycle picks the code: a double-lock
// edge means GEM016, a channel or WaitGroup edge means GEM015. GEM014 is
// the same cycle search one level up, over the mutexes themselves, with
// "acquired-while-holding" edges.
const (
	kindSeq = iota
	kindChan
	kindWG
	kindLock
)

func (m *Model) diagnose() {
	m.checkUnpaired()
	m.checkCircularWaits()
	m.checkLockOrder()
	m.checkWaitGroupCounts()
	m.checkUnreleasedDoubleLocks()
}

func (m *Model) report(op int, code lint.Code, subject, format string, args ...any) {
	info, _ := lint.Info(code)
	pos := m.Ops[op].Pos
	m.Diags = append(m.Diags, lint.FileDiagnostic{
		File: pos.Filename,
		Diagnostic: lint.Diagnostic{
			Code:     code,
			Severity: info.Severity,
			Subject:  subject,
			Message:  fmt.Sprintf(format, args...),
			Pos:      lint.Pos{Line: pos.Line, Col: pos.Column},
		},
	})
}

// desc renders an operation in the paper's event notation
// ("main.g1.recv_ch^0"), which the dump and the enable edges also use.
func (m *Model) desc(op int) string {
	return m.Comp.Event(m.EventOf[op]).Name()
}

func (m *Model) goroutineSubject(op int) string {
	return "goroutine " + m.Gors[m.Ops[op].G].Name
}

// checkUnpaired reports GEM013: a channel operation with no possible
// partner anywhere in the model. Such an operation does not even get a
// wait-for edge — there is nothing to wait for — so the cycle search
// cannot see it; it is the "empty domain" case of the same question.
func (m *Model) checkUnpaired() {
	for _, ci := range m.chans {
		n := m.objName(ci.key)
		if len(ci.recvs) > 0 && len(ci.sends) == 0 && len(ci.closes) == 0 {
			r := ci.recvs[0]
			m.report(r, lint.CodeChanNoPartner, m.goroutineSubject(r),
				"receive on %s can never complete: %s has no send and no close anywhere in %s",
				n, n, m.Func)
		}
		if len(ci.sends) > 0 && len(ci.recvs) == 0 {
			// A buffered channel absorbs cap sends; only a statically
			// certain overflow (or any unbuffered send) is partnerless.
			overflow := len(ci.sends) > ci.cap
			for _, s := range ci.sends {
				if m.Ops[s].InLoop {
					overflow = true
				}
			}
			if overflow {
				s := ci.sends[0]
				if ci.cap == 0 {
					m.report(s, lint.CodeChanNoPartner, m.goroutineSubject(s),
						"send on %s can never complete: %s is unbuffered and has no receive anywhere in %s",
						n, n, m.Func)
				} else {
					m.report(s, lint.CodeChanNoPartner, m.goroutineSubject(s),
						"send on %s can never complete: %s has no receive anywhere in %s and its buffer (cap %d) fills up",
						n, n, m.Func, ci.cap)
				}
			}
		}
	}
}

// waitGraph builds the operation-level wait-for graph: an edge op → dep
// reads "op cannot complete until dep has completed".
func (m *Model) waitGraph() *lint.WaitGraph {
	g := lint.NewWaitGraph(len(m.Ops))
	edge := func(from, to, kind int, format string, args ...any) {
		if from < 0 || to < 0 || from == to {
			return
		}
		g.AddEdge(lint.WaitEdge{
			From: from, To: to, Kind: kind, Rank: from,
			Label: fmt.Sprintf(format, args...),
		})
	}
	// Program order: each operation waits for its predecessor on the same
	// goroutine; a goroutine's first operation waits for its go statement.
	prev := make(map[int]int)
	for i, op := range m.Ops {
		p, ok := prev[op.G]
		if !ok {
			p = m.Gors[op.G].SpawnOp
		}
		edge(i, p, kindSeq, "%s runs after %s on %s",
			m.desc(i), descOr(m, p), m.Gors[op.G].Name)
		prev[op.G] = i
	}
	// Channel waits. A receive waits for its matched send (or close); an
	// unbuffered send waits for the receiver to arrive — i.e. for the
	// receive's program-order predecessor; a buffered send k waits for
	// receive k−cap to have freed a slot.
	for _, ci := range m.chans {
		n := m.objName(ci.key)
		recvIdx := make(map[int]int)
		for i, r := range ci.recvs {
			recvIdx[r] = i
		}
		for _, p := range ci.pairs {
			s, r := p[0], p[1]
			edge(r, s, kindChan, "%s waits for %s (channel %s)", m.desc(r), m.desc(s), n)
		}
		for _, p := range ci.closePairs {
			c, r := p[0], p[1]
			edge(r, c, kindChan, "%s waits for %s (channel %s)", m.desc(r), m.desc(c), n)
		}
		for i, s := range ci.sends {
			j := i - ci.cap
			if j < 0 || j >= len(ci.recvs) {
				continue
			}
			r := ci.recvs[j]
			if ci.cap == 0 {
				// Rendezvous: the send completes when the receiver reaches
				// the matching receive, so it waits for everything before it.
				p := prevOp(m, r)
				edge(s, p, kindChan, "%s waits for %s to reach %s (unbuffered %s)",
					m.desc(s), descOr(m, p), m.desc(r), n)
			} else {
				edge(s, r, kindChan, "%s waits for %s to free a buffer slot (channel %s, cap %d)",
					m.desc(s), m.desc(r), n, ci.cap)
			}
		}
	}
	// WaitGroup joins: a Wait waits for every Done.
	for _, wi := range m.wgs {
		n := m.objName(wi.key)
		for _, w := range wi.waits {
			for _, d := range wi.dones {
				edge(w, d, kindWG, "%s waits for %s (WaitGroup %s)", m.desc(w), m.desc(d), n)
			}
		}
	}
	// Double locks: the inner Lock waits for the unlock releasing the
	// already-held region — which program order puts after it.
	for _, mi := range m.mutexes {
		n := m.objName(mi.key)
		for _, d := range mi.doubles {
			if d.releasedBy >= 0 {
				edge(d.lock, d.releasedBy, kindLock,
					"%s waits for %s to release %s (held since %s)",
					m.desc(d.lock), m.desc(d.releasedBy), n, m.desc(d.heldSince))
			}
		}
	}
	return g
}

func descOr(m *Model, op int) string {
	if op < 0 {
		return "start"
	}
	return m.desc(op)
}

// prevOp returns the operation before op on its goroutine, falling back
// to the goroutine's spawn operation (-1 at the root's start).
func prevOp(m *Model, op int) int {
	if p := prevOnSameG(m.Ops, op); p >= 0 {
		return p
	}
	return m.Gors[m.Ops[op].G].SpawnOp
}

// checkCircularWaits runs the cycle search and classifies each circular
// wait: a double-lock edge makes it GEM016, otherwise a channel or
// WaitGroup edge makes it GEM015. Pure program-order components cannot
// exist (program order is acyclic), so every reported cycle mixes a real
// synchronization wait with the order that makes it unbreakable.
func (m *Model) checkCircularWaits() {
	for _, cycle := range m.waitGraph().Cycles() {
		switch {
		case cycle.HasKind(kindLock):
			at := cycle.MinRankOfKind(kindLock)
			d := m.doubleLockAt(at)
			m.report(at, lint.CodeDoubleLock, m.goroutineSubject(at),
				"double lock of %s: %s already holds it (locked at %s as %s) and the releasing unlock can only run later: %s",
				m.objName(m.Ops[at].Key), m.Gors[m.Ops[at].G].Name,
				posOf(m, d.heldSince), m.desc(d.heldSince), cycle.Describe())
		case cycle.HasKind(kindChan) || cycle.HasKind(kindWG):
			at := cycle.MinRankOfKind(kindChan)
			if wg := cycle.MinRankOfKind(kindWG); at < 0 || (wg >= 0 && wg < at) {
				at = wg
			}
			m.report(at, lint.CodeBlockForever, m.goroutineSubject(at),
				"goroutine can block forever: %s", cycle.Describe())
		}
	}
}

func (m *Model) doubleLockAt(lock int) doubleLock {
	for _, mi := range m.mutexes {
		for _, d := range mi.doubles {
			if d.lock == lock {
				return d
			}
		}
	}
	return doubleLock{lock: lock, heldSince: lock, releasedBy: -1}
}

func posOf(m *Model, op int) string {
	p := m.Ops[op].Pos
	return fmt.Sprintf("%d:%d", p.Line, p.Column)
}

// checkUnreleasedDoubleLocks reports the GEM016 variant the cycle search
// cannot express: the held region has no unlock at all, so the inner
// Lock's wait has an empty target set rather than a cyclic one.
func (m *Model) checkUnreleasedDoubleLocks() {
	for _, mi := range m.mutexes {
		for _, d := range mi.doubles {
			if d.releasedBy >= 0 {
				continue
			}
			m.report(d.lock, lint.CodeDoubleLock, m.goroutineSubject(d.lock),
				"double lock of %s: %s already holds it (locked at %s as %s) and never releases it",
				m.objName(m.Ops[d.lock].Key), m.Gors[m.Ops[d.lock].G].Name,
				posOf(m, d.heldSince), m.desc(d.heldSince))
		}
	}
}

// checkLockOrder reports GEM014: the cycle search over the mutex-order
// graph, whose edge a → b records some goroutine acquiring b while
// holding a. A strongly connected component is an ordering inversion —
// two goroutines interleaving their acquires can each end up holding the
// lock the other needs.
func (m *Model) checkLockOrder() {
	idx := make(map[objKey]int)
	var keys []objKey
	for _, mi := range m.mutexes {
		idx[mi.key] = len(keys)
		keys = append(keys, mi.key)
	}
	if len(keys) < 2 {
		return
	}
	g := lint.NewWaitGraph(len(keys))
	// anchors[a][b] is the acquire operation that created edge a → b
	// (first one wins, for deterministic reporting).
	anchors := make(map[[2]int]int)
	held := make(map[int][]objKey)
	for i, op := range m.Ops {
		if !op.Key.known() {
			continue
		}
		if _, isMutex := idx[op.Key]; !isMutex {
			continue
		}
		switch op.Kind {
		case OpLock, OpRLock:
			// Reader acquisitions participate in the ordering graph too: an
			// RLock blocks behind a pending writer, so acquiring one while
			// holding another lock still closes inversion cycles.
			for _, h := range held[op.G] {
				a, b := idx[h], idx[op.Key]
				if a == b {
					continue
				}
				if _, ok := anchors[[2]int{a, b}]; !ok {
					anchors[[2]int{a, b}] = i
					g.AddEdge(lint.WaitEdge{
						From: a, To: b, Kind: 0, Rank: i,
						Label: fmt.Sprintf("%s locks %s at %s while holding %s",
							m.Gors[op.G].Name, m.objName(op.Key), posOf(m, i), m.objName(h)),
					})
				}
			}
			held[op.G] = append(held[op.G], op.Key)
		case OpUnlock, OpRUnlock:
			hs := held[op.G]
			for j := len(hs) - 1; j >= 0; j-- {
				if hs[j] == op.Key {
					held[op.G] = append(hs[:j:j], hs[j+1:]...)
					break
				}
			}
		}
	}
	for _, cycle := range g.Cycles() {
		at := anchors[[2]int{cycle.Edges[0].From, cycle.Edges[0].To}]
		for _, e := range cycle.Edges {
			if a := anchors[[2]int{e.From, e.To}]; a < at {
				at = a
			}
		}
		m.report(at, lint.CodeLockInversion, "function "+m.Func,
			"lock-ordering inversion: %s", cycle.Describe())
	}
}

// checkWaitGroupCounts reports the counting variant of GEM015: a Wait
// whose counter can never reach zero because the constant Add total
// exceeds the number of Done calls that exist.
func (m *Model) checkWaitGroupCounts() {
	for _, wi := range m.wgs {
		if len(wi.waits) == 0 || wi.addTotal < 0 || wi.addTotal <= len(wi.dones) {
			continue
		}
		w := wi.waits[0]
		m.report(w, lint.CodeBlockForever, m.goroutineSubject(w),
			"%s.Wait() can never return: Add() total is %d but only %d Done() call(s) exist",
			m.objName(wi.key), wi.addTotal, len(wi.dones))
	}
}
