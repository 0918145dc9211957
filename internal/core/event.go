package core

import "fmt"

// EventID identifies an event within one Computation. IDs are dense,
// starting at 0, in builder insertion order.
type EventID int

// Event is a view of one event of a computation: the computation and the
// event's id, two words that hold nothing of their own. Per the paper,
// every event belongs to exactly one element, carries data parameters,
// and may be labelled with thread identifiers; the view reads each from
// the computation's tables without allocating.
type Event struct {
	c  *Computation
	id EventID
}

// ID returns the event's id.
func (e Event) ID() EventID { return e.id }

// Element returns the name of the element the event occurs at.
func (e Event) Element() string { return e.c.names[e.c.events[e.id].elem] }

// Class returns the event's class name within its element (e.g.
// "Assign").
func (e Event) Class() string { return e.c.names[e.c.events[e.id].class] }

// Seq returns the event's occurrence index at its element (0-based),
// which fixes the element order.
func (e Event) Seq() int { return int(e.c.events[e.id].seq) }

// Params returns the event's data parameters.
func (e Event) Params() Params { return e.c.params[e.c.events[e.id].params] }

// Threads returns the thread-instance identifiers labelling the event.
func (e Event) Threads() Labels {
	l := e.c.labels
	if l == nil {
		return Labels{}
	}
	return Labels{tids: l.tids, ids: l.of(e.id)}
}

// HasThread reports whether the event is labelled with the given thread
// instance identifier.
func (e Event) HasThread(tid string) bool {
	l := e.c.labels
	if l == nil {
		return false
	}
	for _, k := range l.of(e.id) {
		if l.tids[k] == tid {
			return true
		}
	}
	return false
}

// Labels is a view of an event's thread-instance identifiers, in
// labelling order.
type Labels struct {
	tids []string
	ids  []int32 // indices into tids
}

// Len returns the number of labels.
func (l Labels) Len() int { return len(l.ids) }

// At returns the k'th label.
func (l Labels) At(k int) string { return l.tids[l.ids[k]] }

// Name renders the paper's Element.Class^i notation.
func (e Event) Name() string {
	return fmt.Sprintf("%s.%s^%d", e.Element(), e.Class(), e.Seq())
}

// String renders the event with its parameters.
func (e Event) String() string {
	return e.Name() + e.Params().String()
}

// ClassRef names an event class, optionally qualified by the element it
// occurs at: "db.control.StartRead" is {Element: "db.control", Class:
// "StartRead"}; an unqualified reference {Element: "", Class: "Assign"}
// matches Assign events at any element.
type ClassRef struct {
	Element string
	Class   string
}

// Ref builds a ClassRef; pass "" for element to match any element.
func Ref(element, class string) ClassRef { return ClassRef{Element: element, Class: class} }

// Matches reports whether the event belongs to the referenced class.
func (r ClassRef) Matches(e Event) bool {
	if r.Class != "" && r.Class != e.Class() {
		return false
	}
	return r.Element == "" || r.Element == e.Element()
}

// String renders the reference.
func (r ClassRef) String() string {
	if r.Element == "" {
		return r.Class
	}
	return r.Element + "." + r.Class
}
