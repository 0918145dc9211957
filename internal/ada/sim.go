package ada

import (
	"fmt"
	"maps"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/lang"
)

// ExploreOptions bounds the exploration.
type ExploreOptions = explore.Options

// ExploreStream exhaustively enumerates interleavings and hands yield a
// run for each distinct GEM computation (distinct as partial orders: the
// walk completes one interleaving per trace, and compares the runs whose
// select choices or queued calls the events may not record; see
// explore.Machine) as soon as it completes, in deterministic DFS order,
// so checkers can consume runs while exploration is still in progress.
// It reports truncation by MaxRuns. If yield returns false the
// exploration stops early with truncated == false and a nil error.
func ExploreStream(p *Program, opts ExploreOptions, yield func(explore.Run) bool) (bool, error) {
	m, err := newMachine(p)
	if err != nil {
		return false, err
	}
	return explore.Walk[*machine, transition](m, opts, yield)
}

type frame struct {
	block []Stmt
	idx   int
}

// endAccept is the internal sentinel closing a rendezvous.
type endAccept struct{}

func (endAccept) adaStmt() {}

// rendezvous tracks an in-progress accept.
type rendezvous struct {
	caller    int
	entry     string
	result    int64
	hasResult bool
}

type taskState struct {
	vars    map[string]int64
	args    map[string]int64 // innermost accept parameter binding
	frames  []frame
	rendezv []rendezvous
	blocked bool // waiting for a rendezvous to complete (caller side)
}

// Lookup makes a task's state the lang.Env of its expressions: accept
// parameters shadow task variables.
func (t *taskState) Lookup(name string) int64 {
	if v, ok := t.args[name]; ok {
		return v
	}
	if v, ok := t.vars[name]; ok {
		return v
	}
	panic(fmt.Sprintf("ada: undefined name %q", name))
}

type caller struct {
	task   int
	arg    int64
	hasArg bool
	callEv int
}

type machine struct {
	explore.Log
	prog   *Program
	tasks  []taskState
	byName map[string]int
	// queues[task][entry] = FIFO of callers
	queues []map[string][]caller

	// ext holds the cells of external shared elements accessed via
	// Op{Element: …}.
	ext map[string]int64
}

func newMachine(p *Program) (*machine, error) {
	m := &machine{
		Log:    explore.NewLog(len(p.Tasks)),
		prog:   p,
		tasks:  make([]taskState, len(p.Tasks)),
		byName: make(map[string]int, len(p.Tasks)),
		queues: make([]map[string][]caller, len(p.Tasks)),
		ext:    make(map[string]int64),
	}
	for i, t := range p.Tasks {
		if _, dup := m.byName[t.Name]; dup {
			return nil, fmt.Errorf("ada: duplicate task name %q", t.Name)
		}
		m.byName[t.Name] = i
	}
	for i, t := range p.Tasks {
		vars := make(map[string]int64, len(t.Vars))
		for _, v := range t.Vars {
			vars[v] = 0
		}
		m.tasks[i] = taskState{
			vars:   vars,
			frames: []frame{{block: t.Body}},
		}
		m.queues[i] = make(map[string][]caller)
		if err := m.validate(t.Name, t.Body); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *machine) validate(taskName string, body []Stmt) error {
	for _, st := range body {
		switch s := st.(type) {
		case EntryCall:
			ti, ok := m.byName[s.Task]
			if !ok {
				return fmt.Errorf("ada: task %s calls unknown task %q", taskName, s.Task)
			}
			if !hasEntry(m.prog.Tasks[ti], s.Entry) {
				return fmt.Errorf("ada: task %s calls unknown entry %s.%s", taskName, s.Task, s.Entry)
			}
		case Accept:
			if !hasEntry(m.prog.Tasks[m.byName[taskName]], s.Entry) {
				return fmt.Errorf("ada: task %s accepts undeclared entry %q", taskName, s.Entry)
			}
			if err := m.validate(taskName, s.Body); err != nil {
				return err
			}
		case Select:
			for _, alt := range s.Alts {
				if err := m.validate(taskName, []Stmt{alt.Accept}); err != nil {
					return err
				}
			}
			if err := m.validate(taskName, s.Else); err != nil {
				return err
			}
		case Repeat:
			if err := m.validate(taskName, s.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

func hasEntry(t Task, entry string) bool {
	for _, e := range t.Entries {
		if e == entry {
			return true
		}
	}
	return false
}

func (m *machine) Clone() *machine {
	next := &machine{
		Log:    m.Log.Clone(),
		prog:   m.prog,
		tasks:  make([]taskState, len(m.tasks)),
		byName: m.byName,
		queues: make([]map[string][]caller, len(m.queues)),
		ext:    maps.Clone(m.ext),
	}
	for i, t := range m.tasks {
		cp := taskState{
			vars:    make(map[string]int64, len(t.vars)),
			frames:  make([]frame, len(t.frames)),
			rendezv: append([]rendezvous(nil), t.rendezv...),
			blocked: t.blocked,
		}
		for k, v := range t.vars {
			cp.vars[k] = v
		}
		if t.args != nil {
			cp.args = make(map[string]int64, len(t.args))
			for k, v := range t.args {
				cp.args[k] = v
			}
		}
		copy(cp.frames, t.frames)
		next.tasks[i] = cp
	}
	for i, q := range m.queues {
		nq := make(map[string][]caller, len(q))
		for e, cs := range q {
			nq[e] = append([]caller(nil), cs...)
		}
		next.queues[i] = nq
	}
	return next
}

func (m *machine) currentStmt(task int) (Stmt, bool) {
	t := &m.tasks[task]
	for len(t.frames) > 0 {
		top := &t.frames[len(t.frames)-1]
		if top.idx < len(top.block) {
			return top.block[top.idx], true
		}
		t.frames = t.frames[:len(t.frames)-1]
	}
	return nil, false
}

func (m *machine) consumeStmt(task int) {
	top := &m.tasks[task].frames[len(m.tasks[task].frames)-1]
	top.idx++
}

// transition is one schedulable step of a task. For "selectaccept" alt
// is the index of the chosen select alternative; Apply resolves it, so
// the value stays comparable.
type transition struct {
	kind string // "step", "accept", "selectaccept", "selectelse"
	task int
	alt  int
}

// Transitions partitions schedulable steps for partial-order reduction.
// Task-internal steps (assignments to own variables, local ops, replies,
// loop unrolling, rendezvous completion) commute with every other enabled
// transition, so one may run eagerly without branching. Entry calls and
// accepts branch: ADA entry queues are FIFO, so the arrival order of
// calls to the same entry is semantically significant, as are
// accept/select choices and operations at shared external elements.
// Independent tells the driver which branches still commute, so its
// sleep sets can skip the redundant orders. With full=true the
// task-internal steps branch too — the unreduced exploration used to
// validate the reduction.
func (m *machine) Transitions(full bool) (transition, bool, []transition) {
	var ts []transition
	for i := range m.tasks {
		t := &m.tasks[i]
		if t.blocked {
			continue
		}
		st, ok := m.currentStmt(i)
		if !ok {
			continue
		}
		switch s := st.(type) {
		case Assign, Reply, Repeat, endAccept:
			if !full {
				return transition{kind: "step", task: i}, true, nil
			}
			ts = append(ts, transition{kind: "step", task: i})
		case Op:
			if s.Element == "" && !full {
				return transition{kind: "step", task: i}, true, nil
			}
			ts = append(ts, transition{kind: "step", task: i})
		case EntryCall:
			ts = append(ts, transition{kind: "step", task: i})
		case Accept:
			if len(m.queues[i][s.Entry]) > 0 {
				ts = append(ts, transition{kind: "accept", task: i})
			}
		case Select:
			ready := false
			for a, alt := range s.Alts {
				if alt.Guard != nil && alt.Guard.Eval(t) == 0 {
					continue
				}
				if len(m.queues[i][alt.Accept.Entry]) > 0 {
					ts = append(ts, transition{kind: "selectaccept", task: i, alt: a})
					ready = true
				}
			}
			if !ready && s.Else != nil {
				ts = append(ts, transition{kind: "selectelse", task: i})
			}
		}
	}
	return transition{}, false, ts
}

// entryRef names one entry queue: task's entry.
type entryRef struct {
	task  int
	entry string
}

// footprint classifies an enabled transition for Independent: the entry
// queue a call appends to (task -1 for none) and the external element
// an operation acts at ("" for none).
func (m *machine) footprint(t transition) (call entryRef, ext string) {
	call.task = -1
	if t.kind != "step" {
		return call, ""
	}
	st, _ := m.currentStmt(t.task)
	switch s := st.(type) {
	case EntryCall:
		return entryRef{task: m.byName[s.Task], entry: s.Entry}, ""
	case Op:
		return call, s.Element
	}
	return call, ""
}

// Independent reports whether two enabled transitions commute. Steps of
// different tasks do, except two calls to the same entry queue, two
// operations at the same external element, and a call into a task whose
// transition is its select's else part (the call may ready an
// alternative and so disable the else). A call and an accept by the
// callee commute: the accept pops the head of a non-empty queue, the
// call appends at its tail.
func (m *machine) Independent(a, b transition) bool {
	if a.task == b.task {
		return false
	}
	ac, ax := m.footprint(a)
	bc, bx := m.footprint(b)
	switch {
	case ac.task >= 0 && ac == bc, ax != "" && ax == bx:
		return false
	case ac.task >= 0 && b.kind == "selectelse" && b.task == ac.task,
		bc.task >= 0 && a.kind == "selectelse" && a.task == bc.task:
		return false
	}
	return true
}

// Apply executes one transition. The events do not record every choice
// a select makes, so Apply marks the run Unrecorded (see
// explore.Machine) when a task resolves a select that has an else part,
// whose taking emits nothing and depends on when calls arrive, or
// accepts an entry that another open alternative also accepts, with the
// same AcceptStart. Deadlocked marks a run that leaves two calls queued
// on one entry, whose order no event records.
func (m *machine) Apply(t transition) error {
	switch t.kind {
	case "accept":
		st, _ := m.currentStmt(t.task)
		return m.beginRendezvous(t.task, st.(Accept))
	case "selectaccept":
		st, _ := m.currentStmt(t.task)
		sel := st.(Select)
		if sel.Else != nil || m.sameEntryOpen(t.task, sel, t.alt) {
			m.Unrecorded()
		}
		return m.beginRendezvous(t.task, sel.Alts[t.alt].Accept)
	case "selectelse":
		m.Unrecorded()
		st, _ := m.currentStmt(t.task)
		sel := st.(Select)
		m.consumeStmt(t.task)
		if len(sel.Else) > 0 {
			m.tasks[t.task].frames = append(m.tasks[t.task].frames, frame{block: sel.Else})
		}
		return nil
	default:
		return m.step(t.task)
	}
}

// sameEntryOpen reports whether an open alternative of sel other than alt
// accepts alt's entry.
func (m *machine) sameEntryOpen(task int, sel Select, alt int) bool {
	t := &m.tasks[task]
	for a, other := range sel.Alts {
		if a != alt && other.Accept.Entry == sel.Alts[alt].Accept.Entry && (other.Guard == nil || other.Guard.Eval(t) != 0) {
			return true
		}
	}
	return false
}

// Deadlocked reports whether a state with no transitions left a task
// blocked or unfinished. It also marks the run Unrecorded if it leaves
// two calls queued on one entry, whose order no event records; the
// driver asks before it keys the run.
func (m *machine) Deadlocked() bool {
	for _, q := range m.queues {
		for _, cs := range q {
			if len(cs) > 1 {
				m.Unrecorded()
			}
		}
	}
	for i := range m.tasks {
		if _, unfinished := m.currentStmt(i); unfinished || m.tasks[i].blocked {
			return true
		}
	}
	return false
}

func (m *machine) beginRendezvous(task int, acc Accept) error {
	m.consumeStmt(task)
	q := m.queues[task][acc.Entry]
	cl := q[0]
	m.queues[task][acc.Entry] = q[1:]

	t := &m.tasks[task]
	params := append(make([]core.Param, 0, 2), core.P("caller", core.Str(m.prog.Tasks[cl.task].Name)))
	if cl.hasArg {
		params = append(params, core.P("v", core.Int(cl.arg)))
	}
	m.Emit(task, EntryElement(m.prog.Tasks[task].Name, acc.Entry), "AcceptStart", core.NewParams(params...), cl.callEv)
	t.rendezv = append(t.rendezv, rendezvous{caller: cl.task, entry: acc.Entry})
	if acc.Param != "" {
		if t.args == nil {
			t.args = make(map[string]int64)
		}
		t.args[acc.Param] = cl.arg
	}
	body := append(append([]Stmt(nil), acc.Body...), endAccept{})
	t.frames = append(t.frames, frame{block: body})
	return nil
}

func (m *machine) step(task int) error {
	st, _ := m.currentStmt(task)
	m.consumeStmt(task)
	t := &m.tasks[task]
	taskName := m.prog.Tasks[task].Name
	switch s := st.(type) {
	case Assign:
		t.vars[s.Var] = s.E.Eval(t)
		m.Emit(task, VarElement(taskName, s.Var), "Assign",
			core.NewParams(core.P("newval", core.Int(t.vars[s.Var]))))
	case Op:
		lang.Op(s).Exec(&m.Log, task, taskName, t, m.ext)
	case Reply:
		if len(t.rendezv) == 0 {
			return fmt.Errorf("ada: Reply outside a rendezvous in task %s", taskName)
		}
		r := &t.rendezv[len(t.rendezv)-1]
		r.result = s.E.Eval(t)
		r.hasResult = true
	case EntryCall:
		callee := m.byName[s.Task]
		params := append(make([]core.Param, 0, 3), core.P("task", core.Str(s.Task)), core.P("entry", core.Str(s.Entry)))
		cl := caller{task: task}
		if s.Arg != nil {
			cl.arg = s.Arg.Eval(t)
			cl.hasArg = true
			params = append(params, core.P("v", core.Int(cl.arg)))
		}
		cl.callEv = m.Emit(task, taskName, "Call", core.NewParams(params...))
		m.queues[callee][s.Entry] = append(m.queues[callee][s.Entry], cl)
		t.blocked = true
	case Repeat:
		for k := 0; k < s.N; k++ {
			t.frames = append(t.frames, frame{block: s.Body})
		}
	case endAccept:
		r := t.rendezv[len(t.rendezv)-1]
		t.rendezv = t.rendezv[:len(t.rendezv)-1]
		endParams := append(make([]core.Param, 0, 2), core.P("caller", core.Str(m.prog.Tasks[r.caller].Name)))
		retParams := append(make([]core.Param, 0, 2), core.P("entry", core.Str(r.entry)))
		if r.hasResult {
			endParams = append(endParams, core.P("result", core.Int(r.result)))
			retParams = append(retParams, core.P("result", core.Int(r.result)))
		}
		end := m.Emit(task, EntryElement(taskName, r.entry), "AcceptEnd", core.NewParams(endParams...))
		m.Emit(r.caller, m.prog.Tasks[r.caller].Name, "Return", core.NewParams(retParams...), end)
		m.tasks[r.caller].blocked = false
		if len(t.rendezv) == 0 {
			t.args = nil
		}
	default:
		return fmt.Errorf("ada: statement %T not supported as a step", st)
	}
	return nil
}
