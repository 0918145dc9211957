// Package monitor implements the Monitor concurrency primitive as used in
// Section 9 of the paper: a mini-language for monitor programs (entries,
// condition variables, WAIT/SIGNAL with Hoare semantics, integer
// variables), an exhaustive-interleaving simulator that emits GEM
// computations, and the GEM specification of the Monitor primitive itself.
//
// Event model (mirroring the paper's correspondences):
//
//	<mon>.lock              Acq, Rel          — monitor possession intervals
//	<mon>.<entry>           Begin, End        — entry activations
//	<mon>.<var>             Assign(newval)    — variable writes
//	<mon>.<cond>            Wait, Signal, Release
//	<proc>                  Call(entry), Return(entry, result), plus
//	                        program-specific local Op events
//
// Control flow within a process chains events by enablement; monitor
// possession intervals are additionally chained (last internal event ⊳
// next Acq), which makes all monitor-internal events totally ordered by
// the temporal order — the property the paper proves of monitors. A
// condition Release is enabled by exactly one Signal, satisfying the
// paper's prerequisite restriction.
//
// The integer expressions and the Op statement, with its external
// shared elements, are package lang's, which the CSP and ADA simulators
// share; this package adds the monitor's statements, its Env (entry
// arguments shadow monitor variables) and QueueNonEmpty.
package monitor

import (
	"fmt"

	"gem/internal/lang"
)

// evalEnv is the lang.Env of monitor code: the holder's entry arguments
// shadow the monitor's variables, and m (nil in unit contexts) answers
// QueueNonEmpty.
type evalEnv struct {
	vars map[string]int64
	args map[string]int64
	m    *machine
}

// Lookup returns an entry argument or monitor variable.
func (e *evalEnv) Lookup(name string) int64 {
	if v, ok := e.args[name]; ok {
		return v
	}
	if v, ok := e.vars[name]; ok {
		return v
	}
	panic(fmt.Sprintf("monitor: undefined variable %q", name))
}

// processEnv is the Env of a process's Op parameters: a process has no
// variables, so they are constants.
var processEnv = &evalEnv{}

// QueueNonEmpty tests whether processes are waiting on a condition — the
// paper's "IF queue(readqueue)".
type QueueNonEmpty struct{ Cond string }

// Eval returns 1 if a process waits on the condition.
func (e QueueNonEmpty) Eval(env lang.Env) int64 {
	if m := env.(*evalEnv).m; m != nil && len(m.condQ[e.Cond]) > 0 {
		return 1
	}
	return 0
}
func (e QueueNonEmpty) String() string { return fmt.Sprintf("queue(%s)", e.Cond) }

// Stmt is a monitor-entry statement.
type Stmt interface{ stmt() }

// Assign writes a monitor variable.
type Assign struct {
	Var string
	E   lang.Expr
}

// If branches on a condition; Else may be nil.
type If struct {
	Cond lang.Expr
	Then []Stmt
	Else []Stmt
}

// While loops on a condition.
type While struct {
	Cond lang.Expr
	Body []Stmt
}

// Wait blocks the caller on a condition queue, releasing the monitor.
type Wait struct{ Cond string }

// Signal resumes the first waiter on a condition (Hoare semantics: the
// waiter runs immediately; the signaller waits on the urgent stack).
type Signal struct{ Cond string }

func (Assign) stmt() {}
func (If) stmt()     {}
func (While) stmt()  {}
func (Wait) stmt()   {}
func (Signal) stmt() {}

// Entry is a monitor entry procedure.
type Entry struct {
	Name string
	Args []string // formal argument names (integer-valued)
	Body []Stmt
	// Result, when non-nil, is evaluated at entry end and carried on the
	// caller's Return event as parameter "result".
	Result lang.Expr
}

// Monitor is a complete monitor declaration.
type Monitor struct {
	Name    string
	Vars    []string // integer variables, zero-initialized before Init
	Conds   []string // condition variables
	Entries []Entry
	Init    []Stmt
}

// EntryNamed returns the named entry.
func (m *Monitor) EntryNamed(name string) (Entry, bool) {
	for _, e := range m.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// ProcStmt is a process (caller) statement.
type ProcStmt interface{ procStmt() }

// Call invokes a monitor entry with literal integer arguments.
type Call struct {
	Entry string
	Args  []int64
}

// Op emits an event at the process element or at an external shared
// element, the resource the monitor guards, which the paper keeps
// OUTSIDE the monitor (see lang.Op).
type Op lang.Op

func (Call) procStmt() {}
func (Op) procStmt()   {}

// Process is a sequential caller of the monitor.
type Process struct {
	Name string
	Body []ProcStmt
}

// Program is a monitor plus its client processes.
type Program struct {
	Monitor   *Monitor
	Processes []Process
}

// Element names used in generated computations.

// LockElement returns the monitor's lock element name.
func (m *Monitor) LockElement() string { return m.Name + ".lock" }

// EntryElement returns the element name of an entry.
func (m *Monitor) EntryElement(entry string) string { return m.Name + "." + entry }

// VarElement returns the element name of a monitor variable.
func (m *Monitor) VarElement(v string) string { return m.Name + "." + v }

// CondElement returns the element name of a condition variable.
func (m *Monitor) CondElement(c string) string { return m.Name + "." + c }

// elementNames maps "lock" and each entry, variable and condition name
// of m to the name of its element, so a simulator builds each name once.
func elementNames(m *Monitor) map[string]string {
	names := map[string]string{"lock": m.LockElement()}
	for _, e := range m.Entries {
		names[e.Name] = m.EntryElement(e.Name)
	}
	for _, v := range m.Vars {
		names[v] = m.VarElement(v)
	}
	for _, c := range m.Conds {
		names[c] = m.CondElement(c)
	}
	return names
}
