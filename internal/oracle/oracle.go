// Package oracle is a reference evaluator for GEM restrictions. It
// decides a restriction on a computation by transcribing the paper's
// definitions (Sections 7 and 8) as directly as it can: its own temporal
// order, its own histories, its own complete valid history sequences,
// and one evaluator that interprets every formula node over them.
//
// It exists to check the production checker, logic.Holds, from outside.
// So it shares no code with it: it reads a computation only through
// Events, Enabled and each event's fields, and a formula only through the
// logic node types and their CmpOp constants. It calls no logic function
// and imports none of the packages logic.Holds runs on (history, order,
// thread, legal). TestIndependence enforces this.
//
// It is slow on purpose: every temporal formula is evaluated on every
// complete sequence, from the definitions. Computations above a fixed
// size are refused with an error, never passed.
package oracle

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
)

// The size limits. Histories are sets of at most MaxEvents events, and a
// computation with more than MaxHistories histories or MaxSequences
// complete sequences is refused.
const (
	MaxEvents    = 64
	MaxHistories = 1 << 10
	MaxSequences = 1 << 13
)

// refusal is the panic value that unwinds an evaluation the oracle
// cannot finish; Holds turns it into its error.
type refusal struct{ err error }

func refuse(format string, args ...any) {
	panic(refusal{fmt.Errorf("oracle: "+format, args...)})
}

// Holds reports whether restriction f holds on c, with the semantics
// logic.Holds documents. A restriction is the conjunction of its
// top-level conjuncts, and each conjunct is judged by its shape:
//
//   - one with a temporal operator (□, ◇) must hold at position 0 of
//     every complete valid history sequence;
//   - one with a history predicate (occurred, new, potential, at, a
//     count or FIFO constraint) but no temporal operator must hold at
//     every history;
//   - any other conjunct is structural and must hold at the full
//     history.
//
// It returns an error, and no verdict, when c is above the size limits,
// when f uses a variable it does not bind, or when f contains a node
// the oracle does not know.
func Holds(f logic.Formula, c *core.Computation) (holds bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ref, ok := r.(refusal)
			if !ok {
				panic(r)
			}
			holds, err = false, ref.err
		}
	}()
	m := newModel(c)
	for _, g := range conjuncts(f, nil) {
		if !m.holds(g) {
			return false, nil
		}
	}
	return true, nil
}

// conjuncts appends the top-level conjuncts of f, nested conjunctions
// flattened, to out.
func conjuncts(f logic.Formula, out []logic.Formula) []logic.Formula {
	and, ok := f.(logic.And)
	if !ok {
		return append(out, f)
	}
	for _, g := range and {
		out = conjuncts(g, out)
	}
	return out
}

// model is the oracle's view of a computation: events by id, and the
// direct enable and temporal order relations as event sets, one bit per
// event id.
type model struct {
	events  []*core.Event
	full    uint64
	enables []uint64 // enables[e]: the events e directly enables
	after   []uint64 // after[e]: the events e temporally precedes
	before  []uint64 // before[e]: the events that temporally precede e

	hist []uint64 // the histories, built on first use
}

func bit(e int) uint64 { return 1 << uint(e) }

// newModel derives the temporal order of c: the transitive closure of
// the enable relation and the element order, where events at one element
// are ordered by their occurrence index.
func newModel(c *core.Computation) *model {
	events := c.Events()
	n := len(events)
	if n > MaxEvents {
		refuse("%d events, above the limit of %d", n, MaxEvents)
	}
	m := &model{events: events, enables: make([]uint64, n), after: make([]uint64, n), before: make([]uint64, n)}
	for i, e := range events {
		if int(e.ID) != i {
			refuse("event %d has id %d", i, e.ID)
		}
		m.full |= bit(i)
		for _, t := range c.Enabled(e.ID) {
			m.enables[i] |= bit(int(t))
		}
		m.after[i] = m.enables[i]
		for j, f := range events {
			if f.Element == e.Element && e.Seq < f.Seq {
				m.after[i] |= bit(j)
			}
		}
	}
	// Warshall: after k rounds, after[i] holds every event reachable
	// from i through intermediate events below k.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if m.after[i]&bit(k) != 0 {
				m.after[i] |= m.after[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		if m.after[i]&bit(i) != 0 {
			refuse("event %d precedes itself", i)
		}
		for j := 0; j < n; j++ {
			if m.after[i]&bit(j) != 0 {
				m.before[j] |= bit(i)
			}
		}
	}
	return m
}

// concurrent reports that the events of set are pairwise unordered.
func (m *model) concurrent(set uint64) bool {
	for e := range m.events {
		if set&bit(e) != 0 && m.after[e]&set != 0 {
			return false
		}
	}
	return true
}

// histories returns every history: every event set that contains the
// temporal predecessors of each of its members. It grows them from ∅ one
// event at a time, adding an event only once its predecessors are in;
// every history is reached so, by adding its events in temporal order.
func (m *model) histories() []uint64 {
	if m.hist != nil {
		return m.hist
	}
	seen := map[uint64]bool{0: true}
	hist := []uint64{0}
	for i := 0; i < len(hist); i++ {
		h := hist[i]
		for e := range m.events {
			next := h | bit(e)
			if next == h || m.before[e]&^h != 0 || seen[next] {
				continue
			}
			if len(hist) == MaxHistories {
				refuse("more than %d histories", MaxHistories)
			}
			seen[next] = true
			hist = append(hist, next)
		}
	}
	m.hist = hist
	return hist
}

// step reports that history next extends history cur by one step of a
// valid history sequence: a non-empty set of pairwise concurrent events.
func (m *model) step(cur, next uint64) bool {
	return next != cur && next&cur == cur && m.concurrent(next&^cur)
}

// sequences calls visit with every complete valid history sequence: a
// sequence of histories from ∅ to the full computation, each a strict
// superset of the one before, where the events each step adds are
// pairwise concurrent. It refuses a computation with more than
// MaxSequences of them before visiting any. It stops when visit returns
// false and reports whether it ran to the end. The slice passed to visit
// is reused.
func (m *model) sequences(visit func(seq []uint64) bool) bool {
	hist := m.histories()
	// Count the sequences before walking them: paths[i] is the number of
	// step paths from hist[i] to the full computation, capped above the
	// limit. hist lists histories by size, so every step from hist[i]
	// leads to a later entry.
	paths := make([]int, len(hist))
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i] == m.full {
			paths[i] = 1
		}
		for j := i + 1; j < len(hist); j++ {
			if m.step(hist[i], hist[j]) {
				paths[i] = min(paths[i]+paths[j], MaxSequences+1)
			}
		}
	}
	if paths[0] > MaxSequences {
		refuse("more than %d complete sequences", MaxSequences)
	}
	seq := make([]uint64, 1, len(m.events)+1)
	var walk func(cur uint64) bool
	walk = func(cur uint64) bool {
		if cur == m.full {
			return visit(seq)
		}
		for _, next := range hist {
			if !m.step(cur, next) {
				continue
			}
			seq = append(seq, next)
			ok := walk(next)
			seq = seq[:len(seq)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return walk(0)
}

// holds judges one conjunct by its shape.
func (m *model) holds(f logic.Formula) bool {
	ev := &evaluator{m: m}
	switch {
	case contains(f, isTemporal):
		return m.sequences(func(seq []uint64) bool {
			ev.seq = seq
			return ev.eval(f, 0, 0)
		})
	case contains(f, readsHistory):
		ev.seq = make([]uint64, 1)
		for _, h := range m.histories() {
			if ev.seq[0] = h; !ev.eval(f, 0, 0) {
				return false
			}
		}
		return true
	default:
		ev.seq = []uint64{m.full}
		return ev.eval(f, 0, 0)
	}
}

func isTemporal(f logic.Formula) bool {
	switch f.(type) {
	case logic.Box, logic.Diamond:
		return true
	}
	return false
}

func readsHistory(f logic.Formula) bool {
	switch f.(type) {
	case logic.Occurred, logic.New, logic.Potential, logic.AtControl, logic.CountDiff, logic.FIFOValues:
		return true
	}
	return false
}

// contains reports whether pred holds for f or any node below it.
func contains(f logic.Formula, pred func(logic.Formula) bool) bool {
	if pred(f) {
		return true
	}
	switch g := f.(type) {
	case logic.Not:
		return contains(g.F, pred)
	case logic.Box:
		return contains(g.F, pred)
	case logic.Diamond:
		return contains(g.F, pred)
	case logic.And:
		return someOf(g, pred)
	case logic.Or:
		return someOf(g, pred)
	case logic.Implies:
		return contains(g.If, pred) || contains(g.Then, pred)
	case logic.Iff:
		return contains(g.A, pred) || contains(g.B, pred)
	case logic.ForAll:
		return contains(g.Body, pred)
	case logic.Exists:
		return contains(g.Body, pred)
	case logic.ExistsUnique:
		return contains(g.Body, pred)
	case logic.AtMostOne:
		return contains(g.Body, pred)
	case logic.ForAllIn:
		return contains(g.Body, pred)
	case logic.ExistsUniqueIn:
		return contains(g.Body, pred)
	case logic.ForAllThread:
		return contains(g.Body, pred)
	case logic.ExistsThread:
		return contains(g.Body, pred)
	}
	return false
}

func someOf(fs []logic.Formula, pred func(logic.Formula) bool) bool {
	for _, f := range fs {
		if contains(f, pred) {
			return true
		}
	}
	return false
}

// matches reports that e belongs to the class ref names: an empty
// element or class name matches any.
func matches(ref core.ClassRef, e *core.Event) bool {
	return (ref.Element == "" || ref.Element == e.Element) && (ref.Class == "" || ref.Class == e.Class)
}

// threadType is the type of a thread instance "type#n".
func threadType(tid string) string {
	if i := strings.LastIndexByte(tid, '#'); i >= 0 {
		return tid[:i]
	}
	return tid
}

// param returns e's value of the named parameter; a missing parameter,
// or one without a kind, is absent.
func param(e *core.Event, name string) (core.Value, bool) {
	for i := 0; i < e.Params.Len(); i++ {
		if p := e.Params.At(i); p.Name == name {
			return p.Value, p.Value.Kind != 0
		}
	}
	return core.Value{}, false
}

// below orders values: values of different kinds by kind, ints by
// value, strings lexicographically, false before true.
func below(a, b core.Value) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	switch a.Kind {
	case core.KindInt:
		return a.I < b.I
	case core.KindString:
		return a.S < b.S
	case core.KindBool:
		return !a.B && b.B
	}
	return false
}

func compare(op logic.CmpOp, a, b core.Value) bool {
	switch op {
	case logic.OpEq:
		return a == b
	case logic.OpNe:
		return a != b
	case logic.OpLt:
		return below(a, b)
	case logic.OpLe:
		return below(a, b) || a == b
	case logic.OpGt:
		return below(b, a)
	case logic.OpGe:
		return below(b, a) || a == b
	}
	refuse("unknown comparison operator %d", int(op))
	return false
}
