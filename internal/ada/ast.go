// Package ada implements the ADA tasking primitive described by the
// paper: tasks communicating by rendezvous (entry call / accept), with
// selective wait. It provides a mini-language, an exhaustive-interleaving
// simulator emitting GEM computations, and the GEM specification of the
// rendezvous.
//
// Event model:
//
//	<task>                 Call(task, entry, v), Return(entry, result),
//	                       local Op events
//	<task>.<entry>         AcceptStart(v), AcceptEnd — rendezvous interval
//	<task>.<var>           Assign(newval)
//
// A rendezvous emits: caller's Call ⊳ callee's AcceptStart, the accept
// body's events, then AcceptEnd ⊳ caller's Return. The caller is blocked
// for the whole interval — ADA's extended rendezvous.
//
// The integer expressions and the Op statement, with its external
// shared elements, are package lang's, which the Monitor and CSP
// simulators share; this package adds the tasking statements and their
// Env, a task's state (accept parameters shadow task variables).
package ada

import "gem/internal/lang"

// Stmt is a task statement.
type Stmt interface{ adaStmt() }

// Assign updates a task variable, emitting an Assign event at the
// variable's element.
type Assign struct {
	Var string
	E   lang.Expr
}

// Op emits an event at the task element, or at an external shared
// element (see lang.Op).
type Op lang.Op

// EntryCall calls Task.Entry with an optional integer argument.
type EntryCall struct {
	Task  string
	Entry string
	Arg   lang.Expr // may be nil
}

// Accept waits for a caller on the entry and executes the body during the
// rendezvous. Param names the formal parameter bound to the caller's
// argument ("" for parameterless entries).
type Accept struct {
	Entry string
	Param string
	Body  []Stmt
}

// Reply sets the result returned to the current rendezvous caller (an
// out-parameter; carried on the caller's Return event).
type Reply struct{ E lang.Expr }

// Select is ADA's selective wait over accept alternatives, with an
// optional else-part taken when no alternative is ready.
type Select struct {
	Alts []SelectAlt
	Else []Stmt // nil: no else part (select blocks)
}

// SelectAlt is one "when Guard => accept …" alternative.
type SelectAlt struct {
	Guard  lang.Expr // nil = open
	Accept Accept
}

// Repeat unrolls its body N times.
type Repeat struct {
	N    int
	Body []Stmt
}

func (Assign) adaStmt()    {}
func (Op) adaStmt()        {}
func (EntryCall) adaStmt() {}
func (Accept) adaStmt()    {}
func (Reply) adaStmt()     {}
func (Select) adaStmt()    {}
func (Repeat) adaStmt()    {}

// Task is one ADA task.
type Task struct {
	Name    string
	Entries []string // declared entry names
	Vars    []string // integer variables, zero-initialized
	Body    []Stmt
}

// Program is a set of tasks.
type Program struct {
	Tasks []Task
}

// EntryElement names the element of a task entry.
func EntryElement(task, entry string) string { return task + "." + entry }

// VarElement names the element of a task variable.
func VarElement(task, v string) string { return task + "." + v }
