package monitor

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/explore"
)

// Run is one complete (or deadlocked) execution of a monitor program,
// rendered as a GEM computation.
type Run struct {
	Comp      *core.Computation
	FinalVars map[string]int64
	Deadlock  bool
}

// ExploreOptions bounds the exhaustive exploration.
type ExploreOptions = explore.Options

// Explore exhaustively enumerates the interleavings of the program under
// Hoare monitor semantics and returns the distinct GEM computations
// reached (distinct as partial orders: interleavings that differ only in
// the order of concurrent events collapse). The second result reports
// whether exploration was truncated by MaxRuns. It is the collect-all
// form of ExploreStream.
func Explore(p *Program, opts ExploreOptions) ([]Run, bool, error) {
	return explore.Collect(ExploreStream, p, opts)
}

// ExploreStream enumerates the distinct runs like Explore but hands each
// one to yield as soon as its terminal state is reached, instead of
// materializing the full slice — checkers can consume runs while the
// exploration is still in progress. Enumeration order is deterministic
// (the DFS order Explore uses). If yield returns false the exploration
// stops early with truncated == false and a nil error.
func ExploreStream(p *Program, opts ExploreOptions, yield func(Run) bool) (bool, error) {
	m, err := newMachine(p)
	if err != nil {
		return false, err
	}
	return explore.Run[*machine, transition](m, opts, yield)
}

type procStatus int

const (
	statusReady procStatus = iota + 1
	statusBlockedEntry
	statusWaiting
	statusUrgent
)

type frame struct {
	block []Stmt
	idx   int
}

type procState struct {
	status  procStatus
	bodyIdx int
	frames  []frame
	args    map[string]int64
	entry   string
	// resume bookkeeping
	resuming bool   // must emit Release+Acq (signalled waiter)
	signalEv int    // Signal event enabling our Release
	waitCond string // condition the process last waited on
}

// resumeCond returns the condition whose Release the resuming process
// must emit.
func (p *procState) resumeCond() string { return p.waitCond }

type machine struct {
	explore.Log
	prog *Program
	// elem names the elements of the monitor's lock, entries, variables
	// and conditions, built once per exploration and shared by its
	// clones, so every event at an element carries one shared string.
	elem   map[string]string
	vars   map[string]int64
	procs  []procState
	holder int
	urgent []int
	condQ  map[string][]int
	entryQ []int

	lastMonEv int
	// ext holds the cells of external shared elements accessed via
	// Op{Element: …}.
	ext map[string]int64
}

func newMachine(p *Program) (*machine, error) {
	m := &machine{
		Log:       explore.NewLog(len(p.Processes)),
		prog:      p,
		elem:      elementNames(p.Monitor),
		vars:      make(map[string]int64, len(p.Monitor.Vars)),
		procs:     make([]procState, len(p.Processes)),
		holder:    -1,
		condQ:     make(map[string][]int, len(p.Monitor.Conds)),
		lastMonEv: -1,
		ext:       make(map[string]int64),
	}
	for _, v := range p.Monitor.Vars {
		m.vars[v] = 0
	}
	for _, c := range p.Monitor.Conds {
		m.condQ[c] = nil
	}
	for i := range m.procs {
		m.procs[i] = procState{status: statusReady, signalEv: -1}
	}
	// Initialization runs to completion before any process step, holding
	// the monitor conceptually.
	env := &evalEnv{vars: m.vars, m: m}
	if err := m.runInit(p.Monitor.Init, env); err != nil {
		return nil, err
	}
	return m, nil
}

// element returns the element name of the monitor's lock ("lock") or of
// one of its entries, variables or conditions.
func (m *machine) element(x string) string {
	if name, ok := m.elem[x]; ok {
		return name
	}
	return m.prog.Monitor.Name + "." + x
}

func (m *machine) runInit(body []Stmt, env *evalEnv) error {
	for _, st := range body {
		switch s := st.(type) {
		case Assign:
			m.vars[s.Var] = s.E.eval(env)
			m.emitInternal(-1, m.element(s.Var), "Assign",
				core.NewParams(
					core.P("newval", core.Int(m.vars[s.Var])),
					core.P("proc", core.Str("init")),
					core.P("entry", core.Str("init")),
				))
		case If:
			branch := s.Else
			if s.Cond.eval(env) != 0 {
				branch = s.Then
			}
			if err := m.runInit(branch, env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("monitor: statement %T not allowed in initialization", st)
		}
	}
	return nil
}

func (m *machine) Clone() *machine {
	next := &machine{
		Log:       m.Log.Clone(),
		prog:      m.prog,
		elem:      m.elem,
		vars:      make(map[string]int64, len(m.vars)),
		procs:     make([]procState, len(m.procs)),
		holder:    m.holder,
		urgent:    append([]int(nil), m.urgent...),
		condQ:     make(map[string][]int, len(m.condQ)),
		entryQ:    append([]int(nil), m.entryQ...),
		lastMonEv: m.lastMonEv,
		ext:       make(map[string]int64, len(m.ext)),
	}
	for k, v := range m.ext {
		next.ext[k] = v
	}
	for k, v := range m.vars {
		next.vars[k] = v
	}
	for c, q := range m.condQ {
		next.condQ[c] = append([]int(nil), q...)
	}
	for i, p := range m.procs {
		cp := p
		cp.frames = make([]frame, len(p.frames))
		copy(cp.frames, p.frames)
		if p.args != nil {
			cp.args = make(map[string]int64, len(p.args))
			for k, v := range p.args {
				cp.args[k] = v
			}
		}
		next.procs[i] = cp
	}
	return next
}

// emitInternal emits a monitor-internal event and threads the
// internal-total-order chain through it.
func (m *machine) emitInternal(proc int, elem, class string, params core.Params, extra ...int) int {
	if m.lastMonEv >= 0 {
		extra = append(extra, m.lastMonEv)
	}
	idx := m.Emit(proc, elem, class, params, extra...)
	m.lastMonEv = idx
	return idx
}

// transition is one schedulable step.
type transition struct {
	kind string // "step", "grant", "urgent"
	proc int
}

// transitions partitions the schedulable steps for partial-order
// reduction. A transition is "invisible" when it commutes with every
// other enabled transition and leads to the same partial order regardless
// of scheduling: process-local ops and entry calls (events at the
// process's own element), the monitor holder's internal steps, and the
// forced urgent resume. One invisible transition may be executed eagerly
// without branching. The branching choices that remain are which queued
// caller enters the free monitor and the order of operations at shared
// external elements; Independent tells the driver which of them still
// commute (a grant and another process's external operation, say), so
// its sleep sets can skip the redundant orders.
//
// With full=true every enabled transition is collected into branches —
// the unreduced exploration used to validate the reduction.
func (m *machine) Transitions(full bool) (transition, bool, []transition) {
	var branches []transition
	for i := range m.procs {
		p := &m.procs[i]
		if p.status != statusReady {
			continue
		}
		if m.holder == i {
			if !full {
				return transition{kind: "step", proc: i}, true, nil
			}
			branches = append(branches, transition{kind: "step", proc: i})
			continue
		}
		if p.bodyIdx < len(m.prog.Processes[i].Body) {
			st := m.prog.Processes[i].Body[p.bodyIdx]
			if op, ok := st.(Op); !full {
				if ok && op.Element != "" {
					branches = append(branches, transition{kind: "step", proc: i})
					continue
				}
				return transition{kind: "step", proc: i}, true, nil
			}
			branches = append(branches, transition{kind: "step", proc: i})
		}
	}
	if m.holder == -1 {
		if len(m.urgent) > 0 {
			if !full {
				return transition{kind: "urgent", proc: m.urgent[len(m.urgent)-1]}, true, nil
			}
			branches = append(branches, transition{kind: "urgent", proc: m.urgent[len(m.urgent)-1]})
		} else {
			for _, p := range m.entryQ {
				branches = append(branches, transition{kind: "grant", proc: p})
			}
		}
	}
	return transition{}, false, branches
}

// footprint classifies an enabled transition for Independent: whether
// it acts on the monitor (a grant, the urgent resume or a step of the
// holder), the external element it operates at ("" for none), and
// whether it is an entry call, which appends to the entry queue.
func (m *machine) footprint(t transition) (monitor bool, ext string, call bool) {
	if t.kind != "step" || m.holder == t.proc {
		return true, "", false
	}
	switch s := m.prog.Processes[t.proc].Body[m.procs[t.proc].bodyIdx].(type) {
	case Op:
		return false, s.Element, false
	case Call:
		return false, "", true
	}
	return false, "", false
}

// Independent reports whether two enabled transitions commute. Steps of
// different processes do, unless both act on the monitor, both are
// operations at the same external element, or both are entry calls
// (whose order fixes the entry queue's). In particular a grant commutes
// with another process's operation at an external element or entry
// call, and operations at different external elements commute.
func (m *machine) Independent(a, b transition) bool {
	if a.proc == b.proc {
		return false
	}
	am, ax, ac := m.footprint(a)
	bm, bx, bc := m.footprint(b)
	return !(am && bm) && !(ac && bc) && (ax == "" || ax != bx)
}

func (m *machine) Apply(t transition) error {
	switch t.kind {
	case "grant":
		return m.applyGrant(t.proc)
	case "urgent":
		return m.applyUrgentResume()
	default:
		if m.holder == t.proc {
			return m.stepInside(t.proc)
		}
		return m.stepOutside(t.proc)
	}
}

func (m *machine) applyGrant(proc int) error {
	for i, p := range m.entryQ {
		if p == proc {
			m.entryQ = append(m.entryQ[:i], m.entryQ[i+1:]...)
			break
		}
	}
	m.holder = proc
	p := &m.procs[proc]
	entry, ok := m.prog.Monitor.EntryNamed(p.entry)
	if !ok {
		return fmt.Errorf("monitor: unknown entry %q", p.entry)
	}
	procName := m.prog.Processes[proc].Name
	m.emitInternal(proc, m.element("lock"), "Acq", core.NewParams(core.P("proc", core.Str(procName))))
	begin := append(make([]core.Param, 0, 4), core.P("proc", core.Str(procName)))
	for name, v := range p.args {
		begin = append(begin, core.P(name, core.Int(v)))
	}
	m.emitInternal(proc, m.element(p.entry), "Begin", core.NewParams(begin...))
	p.frames = []frame{{block: entry.Body}}
	p.status = statusReady
	return nil
}

func (m *machine) applyUrgentResume() error {
	proc := m.urgent[len(m.urgent)-1]
	m.urgent = m.urgent[:len(m.urgent)-1]
	m.holder = proc
	p := &m.procs[proc]
	p.status = statusReady
	m.emitInternal(proc, m.element("lock"), "Acq",
		core.NewParams(core.P("proc", core.Str(m.prog.Processes[proc].Name))))
	return nil
}

// stepOutside executes the next process-body statement.
func (m *machine) stepOutside(proc int) error {
	p := &m.procs[proc]
	st := m.prog.Processes[proc].Body[p.bodyIdx]
	p.bodyIdx++
	switch s := st.(type) {
	case Call:
		entry, ok := m.prog.Monitor.EntryNamed(s.Entry)
		if !ok {
			return fmt.Errorf("monitor: call to unknown entry %q", s.Entry)
		}
		if len(s.Args) != len(entry.Args) {
			return fmt.Errorf("monitor: entry %s expects %d args, got %d", s.Entry, len(entry.Args), len(s.Args))
		}
		args := make(map[string]int64, len(s.Args))
		for i, name := range entry.Args {
			args[name] = s.Args[i]
		}
		p.entry = s.Entry
		p.args = args
		call := append(make([]core.Param, 0, 4), core.P("entry", core.Str(s.Entry)))
		for name, v := range args {
			call = append(call, core.P(name, core.Int(v)))
		}
		m.Emit(proc, m.prog.Processes[proc].Name, "Call", core.NewParams(call...))
		p.status = statusBlockedEntry
		m.entryQ = append(m.entryQ, proc)
	case Op:
		params := make([]core.Param, 0, 4)
		for k, v := range s.Params {
			params = append(params, core.P(k, core.Int(v)))
		}
		elem := m.prog.Processes[proc].Name
		if s.Element != "" {
			elem = s.Element
			params = append(params, core.P("proc", core.Str(m.prog.Processes[proc].Name)))
			switch s.Class {
			case "Assign":
				m.ext[s.Element] = s.Params["newval"]
			case "Getval":
				params = append(params, core.P("oldval", core.Int(m.ext[s.Element])))
			}
		}
		m.Emit(proc, elem, s.Class, core.NewParams(params...))
	default:
		return fmt.Errorf("monitor: process statement %T not supported", st)
	}
	return nil
}

// stepInside advances the monitor holder: first any pending resume
// events, then statements until one event-producing action completes.
func (m *machine) stepInside(proc int) error {
	p := &m.procs[proc]
	if p.resuming {
		procName := m.prog.Processes[proc].Name
		by := core.NewParams(core.P("proc", core.Str(procName)))
		rel := m.emitInternal(proc, m.element(p.resumeCond()), "Release", by, p.signalEv)
		m.emitInternal(proc, m.element("lock"), "Acq", by, rel)
		p.resuming = false
		p.signalEv = -1
		return nil
	}
	env := &evalEnv{vars: m.vars, args: p.args, m: m}
	for {
		st, ok := m.nextStmt(proc)
		if !ok {
			return m.endEntry(proc, env)
		}
		switch s := st.(type) {
		case Assign:
			m.vars[s.Var] = s.E.eval(env)
			m.emitInternal(proc, m.element(s.Var), "Assign",
				core.NewParams(
					core.P("newval", core.Int(m.vars[s.Var])),
					core.P("proc", core.Str(m.prog.Processes[proc].Name)),
					core.P("entry", core.Str(p.entry)),
				))
			return nil
		case If:
			branch := s.Else
			if s.Cond.eval(env) != 0 {
				branch = s.Then
			}
			if len(branch) > 0 {
				p.frames = append(p.frames, frame{block: branch})
			}
		case While:
			if s.Cond.eval(env) != 0 {
				// Re-test after the body: rewind this statement.
				top := &p.frames[len(p.frames)-1]
				top.idx--
				p.frames = append(p.frames, frame{block: s.Body})
			}
		case Wait:
			by := core.NewParams(core.P("proc", core.Str(m.prog.Processes[proc].Name)))
			w := m.emitInternal(proc, m.element(s.Cond), "Wait", by)
			m.emitInternal(proc, m.element("lock"), "Rel", by, w)
			m.condQ[s.Cond] = append(m.condQ[s.Cond], proc)
			p.status = statusWaiting
			p.waitCond = s.Cond
			m.holder = -1
			return nil
		case Signal:
			sig := m.emitInternal(proc, m.element(s.Cond), "Signal",
				core.NewParams(core.P("proc", core.Str(m.prog.Processes[proc].Name))))
			if q := m.condQ[s.Cond]; len(q) > 0 {
				waiter := q[0]
				m.condQ[s.Cond] = q[1:]
				m.urgent = append(m.urgent, proc)
				p.status = statusUrgent
				w := &m.procs[waiter]
				w.status = statusReady
				w.resuming = true
				w.signalEv = sig
				m.holder = waiter
			}
			return nil
		default:
			return fmt.Errorf("monitor: statement %T not supported", st)
		}
	}
}

// nextStmt pops the next statement from the holder's continuation.
func (m *machine) nextStmt(proc int) (Stmt, bool) {
	p := &m.procs[proc]
	for len(p.frames) > 0 {
		top := &p.frames[len(p.frames)-1]
		if top.idx < len(top.block) {
			st := top.block[top.idx]
			top.idx++
			return st, true
		}
		p.frames = p.frames[:len(p.frames)-1]
	}
	return nil, false
}

func (m *machine) endEntry(proc int, env *evalEnv) error {
	p := &m.procs[proc]
	entry, _ := m.prog.Monitor.EntryNamed(p.entry)
	procName := core.Str(m.prog.Processes[proc].Name)
	ret := append(make([]core.Param, 0, 2), core.P("entry", core.Str(p.entry)))
	end := append(make([]core.Param, 0, 4), core.P("proc", procName))
	for name, v := range p.args {
		end = append(end, core.P(name, core.Int(v)))
	}
	if entry.Result != nil {
		result := core.P("result", core.Int(entry.Result.eval(env)))
		ret = append(ret, result)
		end = append(end, result)
	}
	m.emitInternal(proc, m.element(p.entry), "End", core.NewParams(end...))
	rel := m.emitInternal(proc, m.element("lock"), "Rel", core.NewParams(core.P("proc", procName)))
	m.Emit(proc, m.prog.Processes[proc].Name, "Return", core.NewParams(ret...), rel)
	m.holder = -1
	p.frames = nil
	p.args = nil
	p.entry = ""
	return nil
}

// Finish builds the Run for a state with no transitions.
func (m *machine) Finish() (Run, error) {
	deadlock := false
	for i := range m.procs {
		p := &m.procs[i]
		done := p.status == statusReady && m.holder != i && p.bodyIdx >= len(m.prog.Processes[i].Body)
		if !done {
			deadlock = true
		}
	}
	comp, err := m.Build()
	if err != nil {
		return Run{}, fmt.Errorf("monitor: generated computation invalid: %w", err)
	}
	finals := make(map[string]int64, len(m.vars))
	for k, v := range m.vars {
		finals[k] = v
	}
	return Run{Comp: comp, FinalVars: finals, Deadlock: deadlock}, nil
}
