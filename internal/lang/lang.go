// Package lang is the program language the Monitor, CSP and ADA
// simulators share: integer expressions, and the Op statement, which
// emits an event at its process's own element or at an external shared
// element with the paper's Variable semantics (Assign and Getval events,
// declared with the reads-last-assign restriction). Each language keeps
// its own statements and its own Env, which says what the names of an
// expression read. (The specification language is gemlang.)
package lang

import (
	"fmt"
	"strconv"
)

// Env resolves the names an expression reads.
type Env interface {
	// Lookup returns the value of a name; it panics on an undefined one.
	Lookup(name string) int64
}

// Expr is an integer-valued expression. Booleans are 0/1.
type Expr interface {
	Eval(env Env) int64
	String() string
}

// IntLit is an integer literal.
type IntLit int64

// Eval returns the literal.
func (e IntLit) Eval(Env) int64 { return int64(e) }

func (e IntLit) String() string { return strconv.FormatInt(int64(e), 10) }

// VarRef reads a name from the Env.
type VarRef string

// Eval looks the name up in env.
func (e VarRef) Eval(env Env) int64 { return env.Lookup(string(e)) }

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

// Eval applies the operator to both operands; comparisons and the
// logical operators yield 0 or 1.
func (e Bin) Eval(env Env) int64 {
	l, r := e.L.Eval(env), e.R.Eval(env)
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
		panic(fmt.Sprintf("lang: unknown operator %d", e.Op))
	}
}

func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}
