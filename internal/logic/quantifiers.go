package logic

import (
	"fmt"
	"strings"

	"gem/internal/core"
)

// ThreadSep separates a thread type from its instance number in thread
// identifiers (e.g. "piRW#3" is instance 3 of thread type piRW).
const ThreadSep = "#"

// ThreadID builds the canonical thread-instance identifier for a thread
// type and instance number.
func ThreadID(threadType string, n int) string {
	return fmt.Sprintf("%s%s%d", threadType, ThreadSep, n)
}

// ThreadTypeOf returns the thread type of an instance identifier.
func ThreadTypeOf(tid string) string {
	if i := strings.LastIndex(tid, ThreadSep); i >= 0 {
		return tid[:i]
	}
	return tid
}

// classDomain returns the events of the computation matching the class
// reference. Quantifier domains are all events of the computation;
// occurrence in the current history is tested separately via Occurred, as
// in the paper's formulae.
func classDomain(env *Env, ref core.ClassRef) []core.EventID {
	return env.C.EventsOf(ref)
}

// threadDomain returns the distinct thread-instance identifiers of the
// given thread type present in the computation, in first-appearance order.
func threadDomain(env *Env, threadType string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, e := range env.C.Events() {
		for _, tid := range e.Threads {
			if !seen[tid] && ThreadTypeOf(tid) == threadType {
				seen[tid] = true
				out = append(out, tid)
			}
		}
	}
	return out
}

// someEvent reports whether body evaluates to want with v bound to some
// event of dom, trying them in order and stopping at the first. v is
// bound in place: one slot is pushed, overwritten per event and popped
// on every return path.
func someEvent(env *Env, v string, dom []core.EventID, body Formula, want bool) bool {
	slot := env.push(v, false)
	for _, id := range dom {
		env.binds[slot].id = id
		if body.Eval(env) == want {
			env.pop()
			return true
		}
	}
	env.pop()
	return false
}

// countEvents counts the events of dom satisfying body with v bound to
// them, stopping at two: the counting quantifiers only distinguish none,
// one and more than one.
func countEvents(env *Env, v string, dom []core.EventID, body Formula) int {
	slot := env.push(v, false)
	count := 0
	for _, id := range dom {
		env.binds[slot].id = id
		if body.Eval(env) {
			if count++; count > 1 {
				break
			}
		}
	}
	env.pop()
	return count
}

// someThread is someEvent for a thread variable.
func someThread(env *Env, v string, dom []string, body Formula, want bool) bool {
	slot := env.push(v, true)
	for _, tid := range dom {
		env.binds[slot].tid = tid
		if body.Eval(env) == want {
			env.pop()
			return true
		}
	}
	env.pop()
	return false
}

// ForAll is universal quantification of an event variable over an event
// class: (∀ v: Ref) Body.
type ForAll struct {
	Var  string
	Ref  core.ClassRef
	Body Formula
}

// Eval implements Formula.
func (f ForAll) Eval(env *Env) bool {
	return !someEvent(env, f.Var, classDomain(env, f.Ref), f.Body, false)
}
func (f ForAll) String() string {
	return fmt.Sprintf("(FORALL %s: %s) %s", f.Var, f.Ref, f.Body)
}

// Exists is existential quantification over an event class.
type Exists struct {
	Var  string
	Ref  core.ClassRef
	Body Formula
}

// Eval implements Formula.
func (f Exists) Eval(env *Env) bool {
	return someEvent(env, f.Var, classDomain(env, f.Ref), f.Body, true)
}
func (f Exists) String() string {
	return fmt.Sprintf("(EXISTS %s: %s) %s", f.Var, f.Ref, f.Body)
}

// ExistsUnique is the paper's ∃! quantifier: exactly one event of the
// class satisfies the body.
type ExistsUnique struct {
	Var  string
	Ref  core.ClassRef
	Body Formula
}

// Eval implements Formula.
func (f ExistsUnique) Eval(env *Env) bool {
	return countEvents(env, f.Var, classDomain(env, f.Ref), f.Body) == 1
}
func (f ExistsUnique) String() string {
	return fmt.Sprintf("(EXISTS1 %s: %s) %s", f.Var, f.Ref, f.Body)
}

// AtMostOne is the paper's "∃ at most one" quantifier.
type AtMostOne struct {
	Var  string
	Ref  core.ClassRef
	Body Formula
}

// Eval implements Formula.
func (f AtMostOne) Eval(env *Env) bool {
	return countEvents(env, f.Var, classDomain(env, f.Ref), f.Body) <= 1
}
func (f AtMostOne) String() string {
	return fmt.Sprintf("(ATMOST1 %s: %s) %s", f.Var, f.Ref, f.Body)
}

// ForAllThread quantifies a thread variable over all instances of a thread
// type, e.g. the paper's "for all πRW-i".
type ForAllThread struct {
	Var  string
	Type string
	Body Formula
}

// Eval implements Formula.
func (f ForAllThread) Eval(env *Env) bool {
	return !someThread(env, f.Var, threadDomain(env, f.Type), f.Body, false)
}
func (f ForAllThread) String() string {
	return fmt.Sprintf("(FORALLTHREAD %s: %s) %s", f.Var, f.Type, f.Body)
}

// ExistsThread quantifies a thread variable existentially.
type ExistsThread struct {
	Var  string
	Type string
	Body Formula
}

// Eval implements Formula.
func (f ExistsThread) Eval(env *Env) bool {
	return someThread(env, f.Var, threadDomain(env, f.Type), f.Body, true)
}
func (f ExistsThread) String() string {
	return fmt.Sprintf("(EXISTSTHREAD %s: %s) %s", f.Var, f.Type, f.Body)
}
