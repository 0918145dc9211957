// Package history implements GEM histories and valid history sequences
// (Section 7 of the paper). A history is a prefix of a computation: a
// subset of its events closed under temporal predecessors. A valid history
// sequence (vhs) is a monotonically increasing sequence of histories in
// which all events first occurring in the same history are pairwise
// potentially concurrent.
package history

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/obs"
	"gem/internal/order"
)

// History is a prefix of a computation, represented as a set of event ids.
type History struct {
	c   *core.Computation
	set order.Bitset
}

// Full returns the complete computation as a history.
func Full(c *core.Computation) History {
	return History{c: c, set: c.FullHistory()}
}

// FromSet wraps an event set as a history of c, reporting an error if the
// set is not prefix-closed (all temporal predecessors of each member must
// be members).
func FromSet(c *core.Computation, set order.Bitset) (History, error) {
	if !order.IsIdeal(c.Preds(), set) {
		return History{}, fmt.Errorf("history: set %s is not prefix-closed", set)
	}
	return History{c: c, set: set.Clone()}, nil
}

// Computation returns the computation this history is a prefix of.
func (h History) Computation() *core.Computation { return h.c }

// Set returns the underlying event set. It must not be modified.
func (h History) Set() order.Bitset { return h.set }

// Has reports whether the event occurred in this history.
func (h History) Has(id core.EventID) bool { return h.set.Has(int(id)) }

// Len returns the number of events in the history.
func (h History) Len() int { return h.set.Count() }

// IsFull reports whether the history is the complete computation.
func (h History) IsFull() bool { return h.set.Count() == h.c.NumEvents() }

// PrefixOf reports h ⊑ other.
func (h History) PrefixOf(other History) bool { return h.set.SubsetOf(other.set) }

// New implements the paper's new(e): e occurred and no event has observably
// followed it — there is no e' in the history with e ⇒ e'.
func (h History) New(id core.EventID) bool {
	if !h.Has(id) {
		return false
	}
	return !h.c.Reach().Row(int(id)).Intersects(h.set)
}

// Potential reports whether e could legally extend this history: e has not
// occurred, but every temporal predecessor of e has.
func (h History) Potential(id core.EventID) bool {
	if h.Has(id) {
		return false
	}
	return h.c.Preds().Row(int(id)).SubsetOf(h.set)
}

// At implements the paper's intermediate-control-point predicate
// "e at E2": e occurred and has not enabled any event of class E2 within
// this history.
func (h History) At(id core.EventID, class core.ClassRef) bool {
	if !h.Has(id) {
		return false
	}
	for _, succ := range h.c.Enabled(id) {
		if h.Has(succ) && class.Matches(h.c.Event(succ)) {
			return false
		}
	}
	return true
}

// String renders the history as the set of event names.
func (h History) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	h.set.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(h.c.Event(core.EventID(i)).Name())
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// Enumerate calls fn with every history of c (every prefix-closed subset,
// including the empty one). Stops early if fn returns false. Returns the
// number produced. The History passed to fn owns its set; callers must
// not modify it but may retain it.
func Enumerate(c *core.Computation, fn func(h History) bool) int {
	n := order.IdealsPre(c.Reach(), c.Preds(), func(ideal order.Bitset) bool {
		return fn(History{c: c, set: ideal})
	})
	obs.Count("histories.enumerated", int64(n))
	return n
}

// Count returns the total number of histories of c.
func Count(c *core.Computation) int {
	return Enumerate(c, func(History) bool { return true })
}
