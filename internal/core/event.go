package core

import "fmt"

// EventID identifies an event within one Computation. IDs are dense,
// starting at 0, in builder insertion order.
type EventID int

// Event is a unique atomic occurrence within a computation. Per the paper,
// every event belongs to exactly one element, carries data parameters, and
// may be labelled with thread identifiers.
type Event struct {
	ID      EventID
	Element string   // name of the element the event occurs at
	Class   string   // event class name within that element (e.g. "Assign")
	Seq     int      // occurrence index at its element (0-based); fixes the element order
	Params  Params   // data parameters
	Threads []string // thread-instance identifiers labelling this event
}

// Name renders the paper's Element.Class^i notation.
func (e *Event) Name() string {
	return fmt.Sprintf("%s.%s^%d", e.Element, e.Class, e.Seq)
}

// String renders the event with its parameters.
func (e *Event) String() string {
	return e.Name() + e.Params.String()
}

// HasThread reports whether the event is labelled with the given thread
// instance identifier.
func (e *Event) HasThread(tid string) bool {
	for _, t := range e.Threads {
		if t == tid {
			return true
		}
	}
	return false
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
func (r ClassRef) Matches(e *Event) bool {
	if r.Class != "" && r.Class != e.Class {
		return false
	}
	return r.Element == "" || r.Element == e.Element
}

// String renders the reference.
func (r ClassRef) String() string {
	if r.Element == "" {
		return r.Class
	}
	return r.Element + "." + r.Class
}
