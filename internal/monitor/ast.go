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
package monitor

import "fmt"

// Expr is an integer-valued expression over monitor variables and entry
// arguments. Booleans are 0/1.
type Expr interface {
	eval(env *evalEnv) int64
	String() string
}

type evalEnv struct {
	vars map[string]int64
	args map[string]int64
	m    *machine // for queue() tests; nil in unit contexts
}

// IntLit is an integer literal.
type IntLit int64

func (e IntLit) eval(*evalEnv) int64 { return int64(e) }
func (e IntLit) String() string      { return fmt.Sprintf("%d", int64(e)) }

// VarRef reads a monitor variable or entry argument.
type VarRef string

func (e VarRef) eval(env *evalEnv) int64 {
	if v, ok := env.args[string(e)]; ok {
		return v
	}
	if v, ok := env.vars[string(e)]; ok {
		return v
	}
	panic(fmt.Sprintf("monitor: undefined variable %q", string(e)))
}
func (e VarRef) String() string { return string(e) }

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota + 1
	OpSub
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpEq: "=", OpNe: "!=", OpLt: "<",
	OpLe: "<=", OpGt: ">", OpGe: ">=", OpAnd: "&", OpOr: "|",
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (e Bin) eval(env *evalEnv) int64 {
	l, r := e.L.eval(env), e.R.eval(env)
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch e.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpEq:
		return b2i(l == r)
	case OpNe:
		return b2i(l != r)
	case OpLt:
		return b2i(l < r)
	case OpLe:
		return b2i(l <= r)
	case OpGt:
		return b2i(l > r)
	case OpGe:
		return b2i(l >= r)
	case OpAnd:
		return b2i(l != 0 && r != 0)
	case OpOr:
		return b2i(l != 0 || r != 0)
	default:
		panic(fmt.Sprintf("monitor: unknown operator %d", e.Op))
	}
}
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}

// QueueNonEmpty tests whether processes are waiting on a condition — the
// paper's "IF queue(readqueue)".
type QueueNonEmpty struct{ Cond string }

func (e QueueNonEmpty) eval(env *evalEnv) int64 {
	if env.m == nil {
		return 0
	}
	if len(env.m.condQ[e.Cond]) > 0 {
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
	E   Expr
}

// If branches on a condition; Else may be nil.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// While loops on a condition.
type While struct {
	Cond Expr
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
	Result Expr
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

// Op emits a local event of the given class, with optional integer
// parameters. With Element == "" the event occurs at the process element,
// modelling the process's own actions (computing, producing an item, …).
//
// With Element set, the event occurs at that external shared element —
// the resource the monitor guards, which the paper keeps OUTSIDE the
// monitor ("the data itself must be located outside of the monitor").
// Two classes get shared-variable semantics there: Assign stores its
// "newval" parameter in the element's cell, and Getval reads the cell,
// reporting it as "oldval" on the event.
type Op struct {
	Class   string
	Params  map[string]int64
	Element string
}

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
