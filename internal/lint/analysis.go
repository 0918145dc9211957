package lint

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/spec"
)

// analysis carries the shared state of one Analyze run, shallow and deep
// passes alike.
type analysis struct {
	s        *spec.Spec
	marks    *gemlang.SourceMap
	universe *core.Universe // nil when the group structure is invalid
	// dynamic is set when the spec declares core.AdminElement: its
	// group-change events alter the access relation at run time
	// (Section 4's footnote, core/dynamic.go), so enablePossible admits
	// every edge.
	dynamic bool
	res     *Result
	seen    map[string]bool // diagnostic dedupe: code+subject+message

	// cons are the enable-edge constraints extracted from the
	// restriction formulae, including the ones the shallow passes proved
	// doomed; the deep passes build on them.
	cons []enableConstraint

	// Usage records for the dead-declaration analysis.
	usedRefs     []core.ClassRef
	usedElements map[string]bool // element-wide references (@, class-less ports)
}

func (a *analysis) add(d Diagnostic) {
	key := string(d.Code) + "\x00" + d.Subject + "\x00" + d.Message
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.res.Diags = append(a.res.Diags, d)
}

func (a *analysis) errAt(pos Pos, code Code, subject, format string, args ...any) {
	a.add(Diagnostic{Code: code, Severity: SeverityError, Subject: subject,
		Message: fmt.Sprintf(format, args...), Pos: pos})
}

func (a *analysis) warnAt(pos Pos, code Code, subject, format string, args ...any) {
	a.add(Diagnostic{Code: code, Severity: SeverityWarning, Subject: subject,
		Message: fmt.Sprintf(format, args...), Pos: pos})
}

// Position lookup kinds for posOf.
const (
	inElement = iota
	inGroup
	inThread
	inRestriction
)

func (a *analysis) posOf(kind int, name string) Pos {
	if a.marks == nil {
		return Pos{}
	}
	var m map[string]gemlang.Pos
	switch kind {
	case inElement:
		m = a.marks.Elements
	case inGroup:
		m = a.marks.Groups
	case inThread:
		m = a.marks.Threads
	case inRestriction:
		m = a.marks.Restrictions
	}
	if p, ok := m[name]; ok {
		return Pos{Line: p.Line, Col: p.Col}
	}
	return Pos{}
}

func restrictionSubject(owner, name string) string {
	return fmt.Sprintf("restriction %q of %s", name, owner)
}

// markUsed records that a class reference appears somewhere meaningful
// (restriction, port, thread path) for the dead-declaration analysis.
func (a *analysis) markUsed(ref core.ClassRef) {
	a.usedRefs = append(a.usedRefs, ref)
}

func (a *analysis) markElementUsed(name string) {
	if a.usedElements == nil {
		a.usedElements = make(map[string]bool)
	}
	a.usedElements[name] = true
}

// checkRef validates a class reference against the declarations and
// records it as used. It returns false when the reference dangles.
func (a *analysis) checkRef(pos Pos, subject string, ref core.ClassRef) bool {
	a.markUsed(ref)
	if ref.Element != "" {
		d, ok := a.s.Element(ref.Element)
		if !ok {
			a.errAt(pos, CodeDanglingElement, subject,
				"reference to undeclared element %q", ref.Element)
			return false
		}
		if ref.Class != "" {
			if _, ok := d.EventDecl(ref.Class); !ok {
				a.errAt(pos, CodeDanglingClass, subject,
					"element %q declares no event class %q", ref.Element, ref.Class)
				return false
			}
		}
		return true
	}
	if ref.Class == "" {
		return true // the empty reference matches everything
	}
	if len(a.declaringElements(ref.Class)) == 0 {
		a.errAt(pos, CodeDanglingClass, subject,
			"no element declares event class %q", ref.Class)
		return false
	}
	return true
}

// declaringElements returns the declared elements that carry the named
// event class, in sorted order.
func (a *analysis) declaringElements(class string) []string {
	var out []string
	for _, name := range a.s.ElementNames() {
		d, _ := a.s.Element(name)
		if _, ok := d.EventDecl(class); ok {
			out = append(out, name)
		}
	}
	return out
}

// resolveElems resolves a class reference to the candidate element names
// it may denote events of. Empty when the reference dangles.
func (a *analysis) resolveElems(ref core.ClassRef) []string {
	if ref.Element != "" {
		d, ok := a.s.Element(ref.Element)
		if !ok {
			return nil
		}
		if ref.Class != "" {
			if _, ok := d.EventDecl(ref.Class); !ok {
				return nil
			}
		}
		return []string{ref.Element}
	}
	if ref.Class == "" {
		return a.s.ElementNames()
	}
	return a.declaringElements(ref.Class)
}

// checkStructure validates the declaration skeleton: group members and
// ports, and thread path references (GEM001/GEM002).
func (a *analysis) checkStructure() {
	structural := false
	for _, gname := range a.s.GroupNames() {
		g, _ := a.s.Group(gname)
		pos := a.posOf(inGroup, gname)
		subject := "group " + gname
		for _, m := range g.Members {
			if _, ok := a.s.Element(m); ok {
				continue
			}
			if _, ok := a.s.Group(m); ok {
				continue
			}
			a.errAt(pos, CodeDanglingElement, subject,
				"member %q is not a declared element or group", m)
			structural = true
		}
		for _, p := range g.Ports {
			d, ok := a.s.Element(p.Element)
			if !ok {
				a.errAt(pos, CodeDanglingElement, subject,
					"port references undeclared element %q", p.Element)
				structural = true
				continue
			}
			if p.Class == "" {
				a.markElementUsed(p.Element)
				continue
			}
			if _, ok := d.EventDecl(p.Class); !ok {
				a.errAt(pos, CodeDanglingClass, subject,
					"port references undeclared event class %s.%s", p.Element, p.Class)
				structural = true
				continue
			}
			a.markUsed(core.Ref(p.Element, p.Class))
		}
	}
	// Containment/shape errors the member and port checks above cannot
	// see (a port for a non-contained element, a membership cycle).
	if a.universe == nil && !structural {
		if _, err := a.s.Universe(); err != nil {
			a.errAt(Pos{}, CodeDanglingElement, "group structure", "%s", err.Error())
		}
	}
	for _, tt := range a.s.Threads() {
		pos := a.posOf(inThread, tt.Name)
		subject := "thread " + tt.Name
		for _, ref := range tt.Path {
			a.checkRef(pos, subject, ref)
		}
	}
}
