package core

import (
	"fmt"
	"sort"
)

// Port designates an event class of a member element as an "access hole"
// into a group: events outside the group may enable port events even
// though they cannot reach the group's interior.
type Port struct {
	Element string // element the port events occur at
	Class   string // event class designated as the port
}

// Universe holds the element and group structure of a specification: which
// elements exist, how they are clustered into groups, and which event
// classes are ports of which groups. It answers the paper's access and
// contained queries, which constrain legal enable edges.
//
// Per the paper (Section 4, footnote 4), all elements and groups are
// implicitly enclosed in a single surrounding root group.
type Universe struct {
	elements map[string]bool
	groups   map[string]*groupNode
	// memberOf[x] = groups that directly contain x (element or group name).
	memberOf map[string][]string
}

type groupNode struct {
	name    string
	members []string // element or group names (direct members)
	ports   []Port
}

// RootGroup is the name of the implicit group enclosing everything.
const RootGroup = "⊤"

// NewUniverse returns an empty universe containing only the implicit root
// group.
func NewUniverse() *Universe {
	u := &Universe{
		elements: make(map[string]bool),
		groups:   make(map[string]*groupNode),
		memberOf: make(map[string][]string),
	}
	u.groups[RootGroup] = &groupNode{name: RootGroup}
	return u
}

// AddElement declares an element. Elements not explicitly placed in a
// group become direct members of the root group.
func (u *Universe) AddElement(name string) {
	u.elements[name] = true
}

// AddGroup declares a group with the given direct members (element or group
// names). Members may be declared before or after the group itself;
// Validate checks referential integrity.
func (u *Universe) AddGroup(name string, members ...string) {
	g, ok := u.groups[name]
	if !ok {
		g = &groupNode{name: name}
		u.groups[name] = g
	}
	for _, m := range members {
		g.members = append(g.members, m)
		u.memberOf[m] = append(u.memberOf[m], name)
	}
}

// AddPort designates (element, class) as a port of the named group.
func (u *Universe) AddPort(group, element, class string) {
	g, ok := u.groups[group]
	if !ok {
		g = &groupNode{name: group}
		u.groups[group] = g
	}
	g.ports = append(g.ports, Port{Element: element, Class: class})
}

// Validate checks referential integrity: every group member names a
// declared element or group, port elements are members (directly or
// transitively) of their group, and group containment is acyclic.
func (u *Universe) Validate() error {
	// Groups are visited in sorted name order so the first error — and
	// the group a containment cycle is reported through — is the same on
	// every run; downstream tools promise byte-identical diagnostics.
	names := make([]string, 0, len(u.groups))
	for name := range u.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := u.groups[name]
		for _, m := range g.members {
			if !u.elements[m] && u.groups[m] == nil {
				return fmt.Errorf("core: group %s member %s is not a declared element or group", name, m)
			}
		}
		for _, p := range g.ports {
			if !u.elements[p.Element] {
				return fmt.Errorf("core: group %s port element %s is not declared", name, p.Element)
			}
			if name != RootGroup && !u.Contained(p.Element, name) {
				return fmt.Errorf("core: group %s port element %s is not contained in the group", name, p.Element)
			}
		}
	}
	// Acyclic containment: DFS from each group.
	state := make(map[string]int) // 0 unseen, 1 active, 2 done
	var visit func(g string) error
	visit = func(g string) error {
		switch state[g] {
		case 1:
			return fmt.Errorf("core: group containment cycle through %s", g)
		case 2:
			return nil
		}
		state[g] = 1
		if node := u.groups[g]; node != nil {
			for _, m := range node.members {
				if u.groups[m] != nil {
					if err := visit(m); err != nil {
						return err
					}
				}
			}
		}
		state[g] = 2
		return nil
	}
	for _, name := range names {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// directMember reports y ∈ G (direct membership), treating the implicit
// root group as containing every element and group that has no explicit
// parent.
func (u *Universe) directMember(y, g string) bool {
	if g == RootGroup {
		if len(u.memberOf[y]) == 0 {
			return true
		}
		return false
	}
	node, ok := u.groups[g]
	if !ok {
		return false
	}
	for _, m := range node.members {
		if m == y {
			return true
		}
	}
	return false
}

// Contained implements the paper's contained(X, G): X ∈ G or there is a
// group G' with X ∈ G' and contained(G', G).
func (u *Universe) Contained(x, g string) bool {
	return u.contained(x, g, make(map[string]bool))
}

func (u *Universe) contained(x, g string, seen map[string]bool) bool {
	if seen[x] {
		return false
	}
	seen[x] = true
	if u.directMember(x, g) {
		return true
	}
	for _, parent := range u.memberOf[x] {
		if u.contained(parent, g, seen) {
			return true
		}
	}
	// Everything is contained in the root group.
	if g == RootGroup {
		return true
	}
	return false
}

// Access implements the paper's access(X, Y): there exists a group G with
// Y ∈ G and contained(X, G). Intuitively, Y is visible from X when Y is a
// sibling in some group enclosing X, or global to X.
func (u *Universe) Access(x, y string) bool {
	// Candidate groups: those of which y is a direct member, plus the root
	// when y has no explicit parent.
	for _, g := range u.memberOf[y] {
		if u.Contained(x, g) {
			return true
		}
	}
	if len(u.memberOf[y]) == 0 {
		// y is a direct member of the root group; everything is contained
		// in the root.
		return true
	}
	return false
}

// MayEnable reports whether an event at element src, enabling an event of
// the given class at element dst, is legal under the group structure:
// access(src, dst), or the target class is a port of some group G with
// access(src, G).
func (u *Universe) MayEnable(src, dst, dstClass string) bool {
	if u.Access(src, dst) {
		return true
	}
	for name, g := range u.groups {
		for _, p := range g.ports {
			if p.Element == dst && (p.Class == dstClass || p.Class == "") && u.Access(src, name) {
				return true
			}
		}
	}
	return false
}
