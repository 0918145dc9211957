package ada

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/explore"
)

// Run is one complete (or deadlocked) execution rendered as a GEM
// computation.
type Run struct {
	Comp      *core.Computation
	FinalVars map[string]map[string]int64
	Deadlock  bool
}

// ExploreOptions bounds the exploration.
type ExploreOptions = explore.Options

// Explore exhaustively enumerates interleavings and returns distinct GEM
// computations. The bool reports truncation by MaxRuns. It is the
// collect-all form of ExploreStream.
func Explore(p *Program, opts ExploreOptions) ([]Run, bool, error) {
	return explore.Collect(ExploreStream, p, opts)
}

// ExploreStream enumerates the distinct runs like Explore but hands each
// one to yield as soon as it completes, in deterministic DFS order, so
// checkers can consume runs while exploration is still in progress. If
// yield returns false the exploration stops early with truncated ==
// false and a nil error.
func ExploreStream(p *Program, opts ExploreOptions, yield func(Run) bool) (bool, error) {
	m, err := newMachine(p)
	if err != nil {
		return false, err
	}
	return explore.Run[*machine, transition](m, opts, yield)
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
		ext:    make(map[string]int64, len(m.ext)),
	}
	for k, v := range m.ext {
		next.ext[k] = v
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
			env := &evalEnv{vars: t.vars, args: t.args}
			ready := false
			for a, alt := range s.Alts {
				if alt.Guard != nil && alt.Guard.eval(env) == 0 {
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

func (m *machine) Apply(t transition) error {
	switch t.kind {
	case "accept":
		st, _ := m.currentStmt(t.task)
		return m.beginRendezvous(t.task, st.(Accept))
	case "selectaccept":
		st, _ := m.currentStmt(t.task)
		return m.beginRendezvous(t.task, st.(Select).Alts[t.alt].Accept)
	case "selectelse":
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

func (m *machine) beginRendezvous(task int, acc Accept) error {
	m.consumeStmt(task)
	q := m.queues[task][acc.Entry]
	cl := q[0]
	m.queues[task][acc.Entry] = q[1:]

	t := &m.tasks[task]
	params := core.Params{"caller": core.Str(m.prog.Tasks[cl.task].Name)}
	if cl.hasArg {
		params["v"] = core.Int(cl.arg)
	}
	m.Emit(task, EntryElement(m.prog.Tasks[task].Name, acc.Entry), "AcceptStart", params, cl.callEv)
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
	env := &evalEnv{vars: t.vars, args: t.args}
	taskName := m.prog.Tasks[task].Name
	switch s := st.(type) {
	case Assign:
		t.vars[s.Var] = s.E.eval(env)
		m.Emit(task, VarElement(taskName, s.Var), "Assign",
			core.Params{"newval": core.Int(t.vars[s.Var])})
	case Op:
		params := make(core.Params, len(s.Params)+2)
		for k, e := range s.Params {
			params[k] = core.Int(e.eval(env))
		}
		elem := taskName
		if s.Element != "" {
			elem = s.Element
			params["proc"] = core.Str(taskName)
			switch s.Class {
			case "Assign":
				if v, ok := params["newval"]; ok {
					m.ext[s.Element] = v.I
				}
			case "Getval":
				params["oldval"] = core.Int(m.ext[s.Element])
			}
		}
		m.Emit(task, elem, s.Class, params)
	case Reply:
		if len(t.rendezv) == 0 {
			return fmt.Errorf("ada: Reply outside a rendezvous in task %s", taskName)
		}
		r := &t.rendezv[len(t.rendezv)-1]
		r.result = s.E.eval(env)
		r.hasResult = true
	case EntryCall:
		callee := m.byName[s.Task]
		params := core.Params{"task": core.Str(s.Task), "entry": core.Str(s.Entry)}
		cl := caller{task: task}
		if s.Arg != nil {
			cl.arg = s.Arg.eval(env)
			cl.hasArg = true
			params["v"] = core.Int(cl.arg)
		}
		cl.callEv = m.Emit(task, taskName, "Call", params)
		m.queues[callee][s.Entry] = append(m.queues[callee][s.Entry], cl)
		t.blocked = true
	case Repeat:
		for k := 0; k < s.N; k++ {
			t.frames = append(t.frames, frame{block: s.Body})
		}
	case endAccept:
		r := t.rendezv[len(t.rendezv)-1]
		t.rendezv = t.rendezv[:len(t.rendezv)-1]
		endParams := core.Params{"caller": core.Str(m.prog.Tasks[r.caller].Name)}
		if r.hasResult {
			endParams["result"] = core.Int(r.result)
		}
		end := m.Emit(task, EntryElement(taskName, r.entry), "AcceptEnd", endParams)
		retParams := core.Params{"entry": core.Str(r.entry)}
		if r.hasResult {
			retParams["result"] = core.Int(r.result)
		}
		m.Emit(r.caller, m.prog.Tasks[r.caller].Name, "Return", retParams, end)
		m.tasks[r.caller].blocked = false
		if len(t.rendezv) == 0 {
			t.args = nil
		}
	default:
		return fmt.Errorf("ada: statement %T not supported as a step", st)
	}
	return nil
}

func (m *machine) Finish() (Run, error) {
	deadlock := false
	finals := make(map[string]map[string]int64, len(m.tasks))
	for i := range m.tasks {
		_, unfinished := m.currentStmt(i)
		if unfinished || m.tasks[i].blocked {
			deadlock = true
		}
		vars := make(map[string]int64, len(m.tasks[i].vars))
		for k, v := range m.tasks[i].vars {
			vars[k] = v
		}
		finals[m.prog.Tasks[i].Name] = vars
	}
	comp, err := m.Build()
	if err != nil {
		return Run{}, fmt.Errorf("ada: generated computation invalid: %w", err)
	}
	return Run{Comp: comp, FinalVars: finals, Deadlock: deadlock}, nil
}
