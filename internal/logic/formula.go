// Package logic implements GEM restrictions: first-order formulae over GEM
// predicates (occurred, @, ⊳, ⇒ₑ, ⇒, parameter equality, thread
// membership), closed under boolean connectives and bounded quantifiers,
// extended with the temporal operators □ (henceforth) and ◇ (eventually)
// interpreted over valid history sequences as in Section 7 of the paper.
//
// Immediate assertions are evaluated against a history; temporal assertions
// against a position in a history sequence (S ⊨ □p iff every tail satisfies
// p; S ⊨ p for immediate p iff the first history does).
package logic

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/history"
)

// Env is an evaluation environment: the computation, the current history
// (for immediate assertions), optionally the enclosing history sequence and
// position (for temporal operators), and variable bindings.
//
// Bindings form a stack, innermost last. A quantifier pushes one slot,
// overwrites it for each element of its domain and pops it before
// returning, and the temporal operators move Idx/H in place and restore
// them, so binding a variable allocates nothing. Lookups scan from the
// top, so a shadowed name resolves to its innermost binder.
type Env struct {
	C     *core.Computation
	Seq   history.Sequence // nil when evaluating outside a sequence
	Idx   int              // position within Seq
	H     history.History  // current history
	binds []binding
}

// binding binds one quantified variable: an event variable to id, or a
// thread variable to tid. Event and thread variables are separate
// namespaces, so a name may carry one binding of each kind.
type binding struct {
	name   string
	thread bool
	id     core.EventID
	tid    string
}

// NewEnv returns an environment for evaluating immediate assertions at
// history h.
func NewEnv(h history.History) *Env {
	return &Env{C: h.Computation(), H: h}
}

// NewSeqEnv returns an environment positioned at s[idx].
func NewSeqEnv(s history.Sequence, idx int) *Env {
	return &Env{C: s[idx].Computation(), Seq: s, Idx: idx, H: s[idx]}
}

// Lookup returns the event bound to an event variable.
func (e *Env) Lookup(name string) (core.EventID, bool) {
	if b := e.lookup(name, false); b != nil {
		return b.id, true
	}
	return 0, false
}

// lookup returns the innermost binding of name in the given namespace.
func (e *Env) lookup(name string, thread bool) *binding {
	for i := len(e.binds) - 1; i >= 0; i-- {
		if b := &e.binds[i]; b.name == name && b.thread == thread {
			return b
		}
	}
	return nil
}

// push opens a binding slot for a quantified variable and returns its
// index; the quantifier sets the slot per domain element and pops it.
func (e *Env) push(name string, thread bool) int {
	e.binds = append(e.binds, binding{name: name, thread: thread})
	return len(e.binds) - 1
}

// pop closes the innermost binding slot.
func (e *Env) pop() { e.binds = e.binds[:len(e.binds)-1] }

// bind returns a child environment with an additional event binding.
func (e *Env) bind(name string, id core.EventID) *Env {
	return e.with(binding{name: name, id: id})
}

// bindThread returns a child environment with an additional thread binding.
func (e *Env) bindThread(name, tid string) *Env {
	return e.with(binding{name: name, thread: true, tid: tid})
}

// with returns a child environment whose stack is the parent's plus b.
// The child owns a fresh backing array: the lattice engine keeps sibling
// children alive together, and siblings appending into one shared array
// would all read the last sibling's binding.
func (e *Env) with(b binding) *Env {
	child := *e
	n := len(e.binds)
	child.binds = append(e.binds[:n:n], b)
	return &child
}

// Bindings renders the current variable bindings for diagnostics: the
// innermost binding of each name, sorted.
func (e *Env) Bindings() string {
	var parts []string
	for i, b := range e.binds {
		if e.lookup(b.name, b.thread) != &e.binds[i] {
			continue // shadowed by an inner binder
		}
		if b.thread {
			parts = append(parts, fmt.Sprintf("%s=%s", b.name, b.tid))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%s", b.name, e.C.Event(b.id).Name()))
		}
	}
	sortStrings(parts)
	return strings.Join(parts, ", ")
}

// Formula is a GEM restriction or sub-formula.
type Formula interface {
	Eval(env *Env) bool
	String() string
}

// mustEvent resolves an event variable, panicking on unbound names — an
// unbound variable is a bug in the restriction, not a runtime condition.
func mustEvent(env *Env, name string) core.EventID {
	b := env.lookup(name, false)
	if b == nil {
		panic(fmt.Sprintf("logic: unbound event variable %q", name))
	}
	return b.id
}

func mustThread(env *Env, name string) string {
	b := env.lookup(name, true)
	if b == nil {
		panic(fmt.Sprintf("logic: unbound thread variable %q", name))
	}
	return b.tid
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
