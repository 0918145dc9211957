package oracle

import (
	"gem/internal/core"
	"gem/internal/logic"
)

// evaluator interprets formulas over one history sequence. A position
// indexes seq and names the current history; an immediate conjunct is
// evaluated on a sequence of one history.
//
// Bindings live in scope. A quantifier at depth d writes its variable to
// scope[d] and evaluates its body at depth d+1, so the variables in scope
// are scope[:depth], innermost last, and leaving a quantifier needs no
// clean-up: its caller's depth no longer reaches the slot.
type evaluator struct {
	m     *model
	seq   []uint64
	scope []binding
}

// binding binds a variable: an event variable to an event id, a thread
// variable to a thread instance. The two kinds are separate namespaces.
type binding struct {
	name   string
	thread bool
	event  int
	tid    string
}

// bind writes b to scope[depth] and returns the body's depth.
func (ev *evaluator) bind(depth int, b binding) int {
	if depth == len(ev.scope) {
		ev.scope = append(ev.scope, b)
	} else {
		ev.scope[depth] = b
	}
	return depth + 1
}

// event returns the id of the event the innermost binder of name binds.
func (ev *evaluator) event(name string, depth int) int {
	for i := depth - 1; i >= 0; i-- {
		if b := &ev.scope[i]; !b.thread && b.name == name {
			return b.event
		}
	}
	refuse("unbound event variable %q", name)
	return 0
}

// thread returns the thread instance the innermost binder of name binds.
func (ev *evaluator) thread(name string, depth int) string {
	for i := depth - 1; i >= 0; i-- {
		if b := &ev.scope[i]; b.thread && b.name == name {
			return b.tid
		}
	}
	refuse("unbound thread variable %q", name)
	return ""
}

// count evaluates body once per event of the domain, the events matching
// ref or any of refs, with v bound to it, and returns how many bindings
// satisfy it and how many do not. It never stops early.
func (ev *evaluator) count(v string, ref *core.ClassRef, refs []core.ClassRef, body logic.Formula, pos, depth int) (yes, no int) {
	for id, e := range ev.m.events {
		in := ref != nil && matches(*ref, e)
		for _, r := range refs {
			in = in || matches(r, e)
		}
		if !in {
			continue
		}
		if ev.eval(body, pos, ev.bind(depth, binding{name: v, event: id})) {
			yes++
		} else {
			no++
		}
	}
	return yes, no
}

// countThreads is count over the thread instances of type typ that label
// some event, each taken once.
func (ev *evaluator) countThreads(v, typ string, body logic.Formula, pos, depth int) (yes, no int) {
	for i, e := range ev.m.events {
		for j, tid := range e.Threads {
			if threadType(tid) != typ || ev.labelledBefore(tid, i, j) {
				continue
			}
			if ev.eval(body, pos, ev.bind(depth, binding{name: v, thread: true, tid: tid})) {
				yes++
			} else {
				no++
			}
		}
	}
	return yes, no
}

// labelledBefore reports that tid labels an event before event i, or
// occurs among event i's first j labels.
func (ev *evaluator) labelledBefore(tid string, i, j int) bool {
	for k, e := range ev.m.events[:i+1] {
		for l, t := range e.Threads {
			if k == i && l == j {
				return false
			}
			if t == tid {
				return true
			}
		}
	}
	return false
}

// occurredOf counts the events of the class that are in h.
func (ev *evaluator) occurredOf(ref core.ClassRef, h uint64) int {
	n := 0
	for id, e := range ev.m.events {
		if h&bit(id) != 0 && matches(ref, e) {
			n++
		}
	}
	return n
}

// fifo decides FIFOValues at h: the k-th event of B in h, counted in id
// order, carries in PB the value the k-th event of A in h carries in PA.
func (ev *evaluator) fifo(g logic.FIFOValues, h uint64) bool {
	events := ev.m.events
	next := 0 // the first event not yet matched against a B event
	for id, b := range events {
		if h&bit(id) == 0 || !matches(g.B, b) {
			continue
		}
		for next < len(events) && (h&bit(next) == 0 || !matches(g.A, events[next])) {
			next++
		}
		if next == len(events) {
			return false
		}
		av, aok := param(events[next], g.PA)
		bv, bok := param(b, g.PB)
		if !aok || !bok || av != bv {
			return false
		}
		next++
	}
	return true
}

// eval decides f at position pos of ev.seq with the variables of
// scope[:depth] bound.
func (ev *evaluator) eval(f logic.Formula, pos, depth int) bool {
	m, h := ev.m, ev.seq[pos]
	x := func(name string) int { return ev.event(name, depth) }
	switch g := f.(type) {
	case logic.TrueF:
		return true
	case logic.FalseF:
		return false
	case logic.Occurred:
		return h&bit(x(g.Var)) != 0
	case logic.New:
		e := x(g.Var)
		return h&bit(e) != 0 && m.after[e]&h == 0
	case logic.Potential:
		e := x(g.Var)
		return h&bit(e) == 0 && m.before[e]&^h == 0
	case logic.AtControl:
		e := x(g.Var)
		if h&bit(e) == 0 {
			return false
		}
		for s, succ := range m.events {
			if m.enables[e]&bit(s) != 0 && h&bit(s) != 0 && matches(g.Ref, succ) {
				return false
			}
		}
		return true
	case logic.AtElement:
		return m.events[x(g.Var)].Element == g.Element
	case logic.InClass:
		return matches(g.Ref, m.events[x(g.Var)])
	case logic.Enables:
		return m.enables[x(g.X)]&bit(x(g.Y)) != 0
	case logic.ElemOrdered:
		a, b := m.events[x(g.X)], m.events[x(g.Y)]
		return a.Element == b.Element && a.Seq < b.Seq
	case logic.Precedes:
		return m.after[x(g.X)]&bit(x(g.Y)) != 0
	case logic.ConcurrentWith:
		a, b := x(g.X), x(g.Y)
		return a != b && m.after[a]&bit(b) == 0 && m.after[b]&bit(a) == 0
	case logic.SameEvent:
		return x(g.X) == x(g.Y)
	case logic.ParamCmp:
		a, aok := param(m.events[x(g.X)], g.P)
		b, bok := param(m.events[x(g.Y)], g.Q)
		return aok && bok && compare(g.Op, a, b)
	case logic.ParamConst:
		a, ok := param(m.events[x(g.X)], g.P)
		return ok && compare(g.Op, a, g.V)
	case logic.OnThread:
		tid := ev.thread(g.T, depth)
		for _, t := range m.events[x(g.X)].Threads {
			if t == tid {
				return true
			}
		}
		return false
	case logic.ThreadsDistinct:
		return ev.thread(g.T1, depth) != ev.thread(g.T2, depth)
	case logic.CountDiff:
		diff := ev.occurredOf(g.A, h) - ev.occurredOf(g.B, h)
		return diff >= g.Min && (g.NoMax || diff <= g.Max)
	case logic.FIFOValues:
		return ev.fifo(g, h)
	case logic.Not:
		return !ev.eval(g.F, pos, depth)
	case logic.And:
		for _, sub := range g {
			if !ev.eval(sub, pos, depth) {
				return false
			}
		}
		return true
	case logic.Or:
		for _, sub := range g {
			if ev.eval(sub, pos, depth) {
				return true
			}
		}
		return false
	case logic.Implies:
		return !ev.eval(g.If, pos, depth) || ev.eval(g.Then, pos, depth)
	case logic.Iff:
		return ev.eval(g.A, pos, depth) == ev.eval(g.B, pos, depth)
	case logic.Box:
		for i := pos; i < len(ev.seq); i++ {
			if !ev.eval(g.F, i, depth) {
				return false
			}
		}
		return true
	case logic.Diamond:
		for i := pos; i < len(ev.seq); i++ {
			if ev.eval(g.F, i, depth) {
				return true
			}
		}
		return false
	case logic.ForAll:
		_, no := ev.count(g.Var, &g.Ref, nil, g.Body, pos, depth)
		return no == 0
	case logic.Exists:
		yes, _ := ev.count(g.Var, &g.Ref, nil, g.Body, pos, depth)
		return yes > 0
	case logic.ExistsUnique:
		yes, _ := ev.count(g.Var, &g.Ref, nil, g.Body, pos, depth)
		return yes == 1
	case logic.AtMostOne:
		yes, _ := ev.count(g.Var, &g.Ref, nil, g.Body, pos, depth)
		return yes <= 1
	case logic.ForAllIn:
		_, no := ev.count(g.Var, nil, g.Refs, g.Body, pos, depth)
		return no == 0
	case logic.ExistsUniqueIn:
		yes, _ := ev.count(g.Var, nil, g.Refs, g.Body, pos, depth)
		return yes == 1
	case logic.ForAllThread:
		_, no := ev.countThreads(g.Var, g.Type, g.Body, pos, depth)
		return no == 0
	case logic.ExistsThread:
		yes, _ := ev.countThreads(g.Var, g.Type, g.Body, pos, depth)
		return yes > 0
	}
	refuse("unknown formula node %T", f)
	return false
}
