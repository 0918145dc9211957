// Package spec implements GEM specifications: element and group
// declarations with their event classes and explicit restrictions, and
// thread types. A Spec is the IR the legality checker and the
// verification machinery consume; the gemlang package parses the paper's
// concrete syntax into this IR, expanding the GEM type-description
// facility (element/group types with parameters and refinement) by text
// substitution as it goes.
package spec

import (
	"fmt"
	"sort"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/thread"
)

// ParamDecl declares a named, typed event parameter, e.g. newval:INTEGER.
// Types are uninterpreted names; the legality checker only checks
// presence, not a type system (the paper's types are descriptive).
type ParamDecl struct {
	Name string
	Type string
}

// EventClassDecl declares an event class of an element.
type EventClassDecl struct {
	Name   string
	Params []ParamDecl
}

// HasParam reports whether the class declares the named parameter.
func (d EventClassDecl) HasParam(name string) bool {
	for _, p := range d.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Restriction is a named logic formula attached to an element, group, or
// the specification as a whole.
type Restriction struct {
	Name string
	F    logic.Formula
}

// ElementDecl declares one element: its event classes and restrictions.
type ElementDecl struct {
	Name         string
	TypeName     string // element type it was instantiated from, if any
	Events       []EventClassDecl
	Restrictions []Restriction
}

// EventDecl returns the declaration of the named event class, if any.
func (d *ElementDecl) EventDecl(class string) (EventClassDecl, bool) {
	for _, ec := range d.Events {
		if ec.Name == class {
			return ec, true
		}
	}
	return EventClassDecl{}, false
}

// GroupDecl declares one group: its members (element or group names),
// ports, and restrictions.
type GroupDecl struct {
	Name         string
	TypeName     string
	Members      []string
	Ports        []core.Port
	Restrictions []Restriction
}

// Spec is a complete GEM specification.
type Spec struct {
	Name     string
	elements map[string]*ElementDecl
	groups   map[string]*GroupDecl
	global   []Restriction
	threads  []thread.Type
}

// New returns an empty specification.
func New(name string) *Spec {
	return &Spec{
		Name:     name,
		elements: make(map[string]*ElementDecl),
		groups:   make(map[string]*GroupDecl),
	}
}

// AddElement adds an element declaration, replacing any previous one of
// the same name.
func (s *Spec) AddElement(d *ElementDecl) { s.elements[d.Name] = d }

// AddGroup adds a group declaration.
func (s *Spec) AddGroup(d *GroupDecl) { s.groups[d.Name] = d }

// AddRestriction attaches a specification-level restriction.
func (s *Spec) AddRestriction(name string, f logic.Formula) {
	s.global = append(s.global, Restriction{Name: name, F: f})
}

// AddThread declares a thread type (or an alternative path of an existing
// one).
func (s *Spec) AddThread(t thread.Type) { s.threads = append(s.threads, t) }

// Element returns the named element declaration.
func (s *Spec) Element(name string) (*ElementDecl, bool) {
	d, ok := s.elements[name]
	return d, ok
}

// Group returns the named group declaration.
func (s *Spec) Group(name string) (*GroupDecl, bool) {
	d, ok := s.groups[name]
	return d, ok
}

// ElementNames returns the declared element names, sorted.
func (s *Spec) ElementNames() []string {
	out := make([]string, 0, len(s.elements))
	for n := range s.elements {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GroupNames returns the declared group names, sorted.
func (s *Spec) GroupNames() []string {
	out := make([]string, 0, len(s.groups))
	for n := range s.groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Threads returns the declared thread types.
func (s *Spec) Threads() []thread.Type { return s.threads }

// ClassPairs returns every declared (element, event-class) pair as a
// fully qualified class reference, sorted by element then class. This is
// the node set of the deep analyzer's abstract enable graph.
func (s *Spec) ClassPairs() []core.ClassRef {
	var out []core.ClassRef
	for _, name := range s.ElementNames() {
		d := s.elements[name]
		for _, ec := range d.Events {
			out = append(out, core.Ref(name, ec.Name))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Element != out[j].Element {
			return out[i].Element < out[j].Element
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// Restrictions returns all restrictions — global, element-level, and
// group-level — each tagged with its owner, in deterministic order.
func (s *Spec) Restrictions() []OwnedRestriction {
	var out []OwnedRestriction
	for _, r := range s.global {
		out = append(out, OwnedRestriction{Owner: s.Name, Restriction: r})
	}
	for _, name := range s.ElementNames() {
		for _, r := range s.elements[name].Restrictions {
			out = append(out, OwnedRestriction{Owner: name, Restriction: r})
		}
	}
	for _, name := range s.GroupNames() {
		for _, r := range s.groups[name].Restrictions {
			out = append(out, OwnedRestriction{Owner: name, Restriction: r})
		}
	}
	return out
}

// OwnedRestriction is a restriction together with the element/group/spec
// that declared it.
type OwnedRestriction struct {
	Owner string
	Restriction
}

// Universe builds the group/element universe for access checking.
func (s *Spec) Universe() (*core.Universe, error) {
	u := core.NewUniverse()
	for name := range s.elements {
		u.AddElement(name)
	}
	for name, g := range s.groups {
		u.AddGroup(name, g.Members...)
		for _, p := range g.Ports {
			u.AddPort(name, p.Element, p.Class)
		}
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// Validate checks internal consistency: group members reference declared
// names, event classes are uniquely named per element, thread paths
// reference declared classes.
func (s *Spec) Validate() error {
	for name, d := range s.elements {
		seen := make(map[string]bool)
		for _, ec := range d.Events {
			if seen[ec.Name] {
				return fmt.Errorf("spec: element %s declares event class %s twice", name, ec.Name)
			}
			seen[ec.Name] = true
		}
	}
	if _, err := s.Universe(); err != nil {
		return err
	}
	for _, tt := range s.threads {
		for _, ref := range tt.Path {
			if ref.Element == "" {
				continue // unqualified refs are checked per computation
			}
			d, ok := s.elements[ref.Element]
			if !ok {
				return fmt.Errorf("spec: thread %s references unknown element %s", tt.Name, ref.Element)
			}
			if ref.Class != "" {
				if _, ok := d.EventDecl(ref.Class); !ok {
					return fmt.Errorf("spec: thread %s references unknown class %s.%s", tt.Name, ref.Element, ref.Class)
				}
			}
		}
	}
	return nil
}
