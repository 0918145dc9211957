package core

import "fmt"

// Dynamic group structure (the paper, Section 4 footnote: "groups may be
// created, deleted, or changed dynamically... changes to group structure
// are represented as events", and computations "grow monotonically, even
// in the presence of dynamic group structures").
//
// Convention: structural changes occur at the dedicated admin element
// (AdminElement) with event classes AddMember and RemoveMember, each
// carrying string parameters "group" and "member". Because all events at
// one element are totally ordered, the sequence of structural changes is
// unambiguous; the group structure in force for an enable edge e1 ⊳ e2 is
// the static structure amended by every change event in e1's temporal
// past (its causal history).

// AdminElement is the element at which dynamic group-structure changes
// occur.
const AdminElement = "groups.admin"

// Dynamic group-change event classes.
const (
	AddMemberClass    = "AddMember"
	RemoveMemberClass = "RemoveMember"
)

// Clone returns an independent copy of the universe (same elements,
// groups, ports).
func (u *Universe) Clone() *Universe {
	out := NewUniverse()
	for e := range u.elements {
		out.AddElement(e)
	}
	for name, g := range u.groups {
		if name == RootGroup {
			continue
		}
		out.AddGroup(name, g.members...)
		for _, p := range g.ports {
			out.AddPort(name, p.Element, p.Class)
		}
	}
	return out
}

// AddMember adds a direct member to a group (creating the group if
// needed).
func (u *Universe) AddMember(group, member string) {
	u.AddGroup(group, member)
}

// RemoveMember removes a direct member from a group. Removing a
// non-member is a no-op.
func (u *Universe) RemoveMember(group, member string) {
	g, ok := u.groups[group]
	if !ok {
		return
	}
	for i, m := range g.members {
		if m == member {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	parents := u.memberOf[member]
	for i, p := range parents {
		if p == group {
			u.memberOf[member] = append(parents[:i], parents[i+1:]...)
			break
		}
	}
	if len(u.memberOf[member]) == 0 {
		delete(u.memberOf, member)
	}
}

// ChangeEvent extracts the structural change described by a dynamic
// group event, or ok=false if the event is not one.
func ChangeEvent(e Event) (group, member string, add, ok bool) {
	if e.Element() != AdminElement {
		return "", "", false, false
	}
	switch e.Class() {
	case AddMemberClass:
		add = true
	case RemoveMemberClass:
		add = false
	default:
		return "", "", false, false
	}
	g, gok := e.Params().Get("group")
	m, mok := e.Params().Get("member")
	if !gok || !mok || g.Kind != KindString || m.Kind != KindString {
		return "", "", false, false
	}
	return g.S, m.S, add, true
}

// UniverseAt returns the group structure in force at (i.e. just after)
// the causal past of the given event: the static universe amended by
// every change event that temporally precedes it. Change events
// concurrent with the event do not apply — an enabling is judged by what
// its source could observe.
func UniverseAt(static *Universe, c *Computation, at EventID) (*Universe, error) {
	changes := c.EventsOf(ClassRef{Element: AdminElement})
	u := static
	cloned := false
	for _, id := range changes {
		if !c.Temporal(id, at) {
			continue
		}
		group, member, add, ok := ChangeEvent(c.Event(id))
		if !ok {
			return nil, fmt.Errorf("core: malformed group-change event %s", c.Event(id).Name())
		}
		if !cloned {
			u = static.Clone()
			cloned = true
		}
		if add {
			u.AddMember(group, member)
		} else {
			u.RemoveMember(group, member)
		}
	}
	return u, nil
}

// HasDynamicChanges reports whether the computation contains any dynamic
// group-change events.
func HasDynamicChanges(c *Computation) bool {
	return len(c.EventsAt(AdminElement)) > 0
}
