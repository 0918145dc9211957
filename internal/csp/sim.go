package csp

import (
	"fmt"
	"maps"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/lang"
)

// ExploreOptions bounds the exploration.
type ExploreOptions = explore.Options

// Explore exhaustively enumerates the program's executions and returns a
// run for each distinct GEM computation (distinct as partial orders: the
// walk completes one execution per trace, and after a guarded
// alternative whose choice the events may not record it compares the
// runs; see explore.Machine). The bool reports truncation by MaxRuns.
// It is the collect-all form of ExploreStream.
func Explore(p *Program, opts ExploreOptions) ([]explore.Run, bool, error) {
	return explore.Collect(ExploreStream, p, opts)
}

// ExploreStream enumerates the distinct runs like Explore but hands each
// one to yield as soon as it completes, in deterministic DFS order, so
// checkers can consume runs while exploration is still in progress. If
// yield returns false the exploration stops early with truncated ==
// false and a nil error.
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

type procState struct {
	vars   env
	frames []frame
}

type machine struct {
	explore.Log
	prog   *Program
	procs  []procState
	byName map[string]int
	// ext holds the cells of external shared elements accessed via
	// Op{Element: …}.
	ext map[string]int64
}

func newMachine(p *Program) (*machine, error) {
	m := &machine{
		Log:    explore.NewLog(len(p.Processes)),
		prog:   p,
		procs:  make([]procState, len(p.Processes)),
		byName: make(map[string]int, len(p.Processes)),
		ext:    make(map[string]int64),
	}
	for i, proc := range p.Processes {
		if _, dup := m.byName[proc.Name]; dup {
			return nil, fmt.Errorf("csp: duplicate process name %q", proc.Name)
		}
		m.byName[proc.Name] = i
		vars := make(env, len(proc.Vars))
		for _, v := range proc.Vars {
			vars[v] = 0
		}
		m.procs[i] = procState{
			vars:   vars,
			frames: []frame{{block: proc.Body}},
		}
	}
	for _, proc := range p.Processes {
		if err := m.validateStmts(proc.Name, proc.Body); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// validateStmts checks that every communication names a declared process.
func (m *machine) validateStmts(procName string, body []Stmt) error {
	for _, st := range body {
		switch s := st.(type) {
		case Send:
			if _, ok := m.byName[s.To]; !ok {
				return fmt.Errorf("csp: process %s sends to unknown process %q", procName, s.To)
			}
		case Recv:
			if _, ok := m.byName[s.From]; !ok {
				return fmt.Errorf("csp: process %s receives from unknown process %q", procName, s.From)
			}
		case Alt:
			for _, br := range s.Branches {
				if br.Comm != nil {
					if err := m.validateStmts(procName, []Stmt{br.Comm}); err != nil {
						return err
					}
				}
				if err := m.validateStmts(procName, br.Body); err != nil {
					return err
				}
			}
		case Repeat:
			if err := m.validateStmts(procName, s.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *machine) Clone() *machine {
	next := &machine{
		Log:    m.Log.Clone(),
		prog:   m.prog,
		procs:  make([]procState, len(m.procs)),
		byName: m.byName,
		ext:    maps.Clone(m.ext),
	}
	for i, p := range m.procs {
		cp := procState{
			vars:   make(env, len(p.vars)),
			frames: make([]frame, len(p.frames)),
		}
		for k, v := range p.vars {
			cp.vars[k] = v
		}
		copy(cp.frames, p.frames)
		next.procs[i] = cp
	}
	return next
}

// offer is a pending communication a process is ready to perform.
type offer struct {
	proc    int
	send    bool
	partner int
	value   int64  // for sends
	recvVar string // for receives
	// branch is the index of the Alt branch whose continuation selecting
	// this offer commits the process to, or -1 outside an Alt
	branch int
}

// transition is either a local step or a matched communication. Alt
// branches are named by index and resolved in Apply, so the value stays
// comparable.
type transition struct {
	kind string // "local", "comm", "altlocal"
	proc int
	out  offer // for comm: the sender side
	inp  offer // for comm: the receiver side
	// altlocal: the index of the selected pure-boolean Alt branch
	branch int
}

// currentStmt returns the process's next statement without consuming it.
func (m *machine) currentStmt(proc int) (Stmt, bool) {
	p := &m.procs[proc]
	for len(p.frames) > 0 {
		top := &p.frames[len(p.frames)-1]
		if top.idx < len(top.block) {
			return top.block[top.idx], true
		}
		p.frames = p.frames[:len(p.frames)-1]
	}
	return nil, false
}

// consumeStmt advances past the current statement.
func (m *machine) consumeStmt(proc int) {
	top := &m.procs[proc].frames[len(m.procs[proc].frames)-1]
	top.idx++
}

// Transitions partitions schedulable steps for partial-order reduction:
// assignments, process-local ops, and Repeat unrolling commute with every
// other enabled transition (their events, if any, occur at the process's
// own element), so one of them may run eagerly without branching. The
// branching choices are communications, alternative selections, and
// operations at shared external elements; Independent tells the driver
// which of them still commute, so its sleep sets can skip the redundant
// orders. With full=true the local steps branch too — the unreduced
// exploration used to validate the reduction.
func (m *machine) Transitions(full bool) (transition, bool, []transition) {
	var ts []transition
	var offers []offer
	for i := range m.procs {
		st, ok := m.currentStmt(i)
		if !ok {
			continue
		}
		switch s := st.(type) {
		case Assign, Repeat:
			if !full {
				return transition{kind: "local", proc: i}, true, nil
			}
			ts = append(ts, transition{kind: "local", proc: i})
		case Op:
			if s.Element == "" && !full {
				return transition{kind: "local", proc: i}, true, nil
			}
			ts = append(ts, transition{kind: "local", proc: i})
		case Send:
			if q, ok := m.byName[s.To]; ok {
				offers = append(offers, offer{
					proc: i, send: true, partner: q,
					value: s.E.Eval(m.procs[i].vars), branch: -1,
				})
			}
		case Recv:
			if q, ok := m.byName[s.From]; ok {
				offers = append(offers, offer{proc: i, send: false, partner: q, recvVar: s.Var, branch: -1})
			}
		case Alt:
			for b, br := range s.Branches {
				if br.Guard != nil && br.Guard.Eval(m.procs[i].vars) == 0 {
					continue
				}
				switch comm := br.Comm.(type) {
				case nil:
					ts = append(ts, transition{kind: "altlocal", proc: i, branch: b})
				case Send:
					if q, ok := m.byName[comm.To]; ok {
						offers = append(offers, offer{
							proc: i, send: true, partner: q,
							value:  comm.E.Eval(m.procs[i].vars),
							branch: b,
						})
					}
				case Recv:
					if q, ok := m.byName[comm.From]; ok {
						offers = append(offers, offer{
							proc: i, send: false, partner: q,
							recvVar: comm.Var,
							branch:  b,
						})
					}
				}
			}
		}
	}
	// Match complementary offers.
	for _, o1 := range offers {
		if !o1.send {
			continue
		}
		for _, o2 := range offers {
			if o2.send || o2.proc != o1.partner || o2.partner != o1.proc {
				continue
			}
			ts = append(ts, transition{kind: "comm", out: o1, inp: o2})
		}
	}
	return transition{}, false, ts
}

// footprint lists the processes an enabled transition moves and the
// external element it acts at ("" for none).
func (m *machine) footprint(t transition) (p, q int, ext string) {
	if t.kind == "comm" {
		return t.out.proc, t.inp.proc, ""
	}
	if op, ok := m.mustStmt(t.proc).(Op); ok {
		ext = op.Element
	}
	return t.proc, t.proc, ext
}

// Independent reports whether two enabled transitions commute: they do
// when they move disjoint sets of processes and act at no common
// external element.
func (m *machine) Independent(a, b transition) bool {
	ap, aq, ax := m.footprint(a)
	bp, bq, bx := m.footprint(b)
	return ap != bp && ap != bq && aq != bp && aq != bq && (ax == "" || ax != bx)
}

// mustStmt returns the current statement of a process that has one.
func (m *machine) mustStmt(proc int) Stmt {
	st, _ := m.currentStmt(proc)
	return st
}

// altBody returns the continuation that selecting branch of proc's
// current Alt commits it to; branch -1 (no Alt) has none.
func (m *machine) altBody(proc, branch int) []Stmt {
	if branch < 0 {
		return nil
	}
	return m.mustStmt(proc).(Alt).Branches[branch].Body
}

// markUnrecorded marks the run Unrecorded if proc, selecting branch of
// its current Alt (-1: no Alt), makes a choice its events may not
// record: another open branch could lead to the same events. A branch
// without a communication emits nothing when selected, so it may match
// any other; two that communicate with one partner in one direction may
// emit the same Req and End.
func (m *machine) markUnrecorded(proc, branch int) {
	if branch < 0 {
		return
	}
	branches := m.mustStmt(proc).(Alt).Branches
	chosen := branches[branch].Comm
	for i, br := range branches {
		if i == branch || br.Guard != nil && br.Guard.Eval(m.procs[proc].vars) == 0 {
			continue
		}
		if !distinctComm(chosen, br.Comm) {
			m.Unrecorded()
			return
		}
	}
}

// distinctComm reports whether two Alt branches' communications always
// emit different events: both exist and differ in direction or partner.
func distinctComm(a, b Stmt) bool {
	if a == nil || b == nil {
		return false
	}
	as, aSend := a.(Send)
	bs, bSend := b.(Send)
	switch {
	case aSend != bSend:
		return true
	case aSend:
		return as.To != bs.To
	}
	return a.(Recv).From != b.(Recv).From
}

func (m *machine) Apply(t transition) error {
	switch t.kind {
	case "local":
		return m.stepLocal(t.proc)
	case "altlocal":
		m.markUnrecorded(t.proc, t.branch)
		body := m.altBody(t.proc, t.branch)
		m.consumeStmt(t.proc)
		if len(body) > 0 {
			m.procs[t.proc].frames = append(m.procs[t.proc].frames, frame{block: body})
		}
		return nil
	case "comm":
		return m.stepComm(t.out, t.inp)
	default:
		return fmt.Errorf("csp: unknown transition %q", t.kind)
	}
}

func (m *machine) stepLocal(proc int) error {
	st, _ := m.currentStmt(proc)
	m.consumeStmt(proc)
	p := &m.procs[proc]
	switch s := st.(type) {
	case Assign:
		p.vars[s.Var] = s.E.Eval(p.vars)
	case Op:
		lang.Op(s).Exec(&m.Log, proc, m.prog.Processes[proc].Name, p.vars, m.ext)
	case Repeat:
		for k := 0; k < s.N; k++ {
			p.frames = append(p.frames, frame{block: s.Body})
		}
	default:
		return fmt.Errorf("csp: statement %T is not a local step", st)
	}
	return nil
}

func (m *machine) stepComm(out, inp offer) error {
	sender, receiver := out.proc, inp.proc
	pName := m.prog.Processes[sender].Name
	qName := m.prog.Processes[receiver].Name

	m.markUnrecorded(sender, out.branch)
	m.markUnrecorded(receiver, inp.branch)
	outBody := m.altBody(sender, out.branch)
	inpBody := m.altBody(receiver, inp.branch)
	m.consumeStmt(sender)
	m.consumeStmt(receiver)

	// Each side's Req and End carry the same parameters, so they share
	// one list.
	ident := core.NewParams(core.P("v", core.Int(out.value)), core.P("proc", core.Str(pName)), core.P("partner", core.Str(qName)))
	identR := core.NewParams(core.P("v", core.Int(out.value)), core.P("proc", core.Str(qName)), core.P("partner", core.Str(pName)))
	outReq := m.Emit(sender, OutElement(pName, qName), "Req", ident)
	inpReq := m.Emit(receiver, InpElement(qName, pName), "Req", identR)
	// Simultaneity: each End enabled by both requests.
	m.Emit(sender, OutElement(pName, qName), "End", ident, inpReq)
	m.Emit(receiver, InpElement(qName, pName), "End", identR, outReq)

	if inp.recvVar != "" {
		m.procs[receiver].vars[inp.recvVar] = out.value
	}
	if len(outBody) > 0 {
		m.procs[sender].frames = append(m.procs[sender].frames, frame{block: outBody})
	}
	if len(inpBody) > 0 {
		m.procs[receiver].frames = append(m.procs[receiver].frames, frame{block: inpBody})
	}
	return nil
}

// Deadlocked reports whether a state with no transitions left a process
// unfinished.
func (m *machine) Deadlocked() bool {
	for i := range m.procs {
		if _, unfinished := m.currentStmt(i); unfinished {
			return true
		}
	}
	return false
}
