// Package csp implements Hoare's Communicating Sequential Processes as
// described by the paper's GEM treatment (Section 8.2): processes
// communicating by synchronous message exchange, with guarded
// alternatives. It provides a mini-language, an exhaustive-interleaving
// simulator emitting GEM computations, and the GEM specification of the
// CSP primitive, including the paper's simultaneity-of-I/O-exchange
// restriction.
//
// Event model (following the paper's input/output element sketch):
//
//	<P>.out.<Q>   Req(v), End      — P's output commands naming Q
//	<P>.inp.<Q>   Req, End(v)      — P's input commands naming Q
//	<P>           local Op events
//
// One communication P!v / Q?x emits four events: P.out.Q.Req(v) and
// Q.inp.P.Req (each enabled by its process's control flow), then
// P.out.Q.End and Q.inp.P.End(v), each enabled by BOTH requests — so
// inp.Req ⊳ out.End ⟺ out.Req ⊳ inp.End, the paper's simultaneity
// restriction, holds by construction and is checked by the spec.
//
// The integer expressions and the Op statement, with its external
// shared elements, are package lang's, which the Monitor and ADA
// simulators share; this package adds the CSP statements and their Env,
// the process's local variables.
package csp

import (
	"fmt"

	"gem/internal/lang"
)

// env holds a process's local variables; it is the lang.Env of the
// process's expressions.
type env map[string]int64

// Lookup returns a local variable.
func (e env) Lookup(name string) int64 {
	v, ok := e[name]
	if !ok {
		panic(fmt.Sprintf("csp: undefined variable %q", name))
	}
	return v
}

// Stmt is a process statement.
type Stmt interface{ cspStmt() }

// Send is the output command "To ! E".
type Send struct {
	To string
	E  lang.Expr
}

// Recv is the input command "From ? Var".
type Recv struct {
	From string
	Var  string
}

// Assign updates a process-local variable (no event emitted; CSP local
// state is private).
type Assign struct {
	Var string
	E   lang.Expr
}

// Op emits an event at the process element, or at an external shared
// element, the data a CSP controller guards (see lang.Op). Its
// parameters are evaluated in the process's local state.
type Op lang.Op

// Alt is the guarded alternative: exactly one branch with a true boolean
// guard and a ready communication is selected (nondeterministically).
type Alt struct {
	Branches []Branch
}

// Branch is one guarded command of an alternative. Guard may be nil
// (true); Comm may be a Send or Recv, or nil for a purely boolean guard.
type Branch struct {
	Guard lang.Expr
	Comm  Stmt // Send or Recv, or nil
	Body  []Stmt
}

// Repeat unrolls its body N times (bounded loops keep exploration
// finite).
type Repeat struct {
	N    int
	Body []Stmt
}

func (Send) cspStmt()   {}
func (Recv) cspStmt()   {}
func (Assign) cspStmt() {}
func (Op) cspStmt()     {}
func (Alt) cspStmt()    {}
func (Repeat) cspStmt() {}

// Process is one sequential CSP process.
type Process struct {
	Name string
	Vars []string // local integer variables, zero-initialized
	Body []Stmt
}

// Program is a set of communicating processes.
type Program struct {
	Processes []Process
}

// OutElement names P's output element toward Q.
func OutElement(p, q string) string { return p + ".out." + q }

// InpElement names P's input element from Q.
func InpElement(p, q string) string { return p + ".inp." + q }
