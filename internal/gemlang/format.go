package gemlang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/spec"
)

// Format renders a compiled specification back into the concrete GEM
// syntax. Parsing the result yields an equivalent specification
// (Parse ∘ Format is a fixpoint up to formatting), which makes the
// concrete syntax a faithful interchange format for compiled specs.
// Element/group *types* are not reconstructed — instances are emitted
// expanded, which is exactly the paper's text-substitution semantics.
func Format(s *spec.Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SPEC %s\n", s.Name)
	for _, name := range s.ElementNames() {
		d, _ := s.Element(name)
		fmt.Fprintf(&sb, "\nELEMENT %s\n", name)
		if len(d.Events) > 0 {
			sb.WriteString("  EVENTS\n")
			for _, ec := range d.Events {
				fmt.Fprintf(&sb, "    %s%s\n", ec.Name, formatParams(ec.Params))
			}
		}
		formatRestrictions(&sb, d.Restrictions)
		sb.WriteString("END\n")
	}
	for _, name := range s.GroupNames() {
		g, _ := s.Group(name)
		fmt.Fprintf(&sb, "\nGROUP %s MEMBERS(%s)\n", name, strings.Join(g.Members, ", "))
		if len(g.Ports) > 0 {
			var ports []string
			for _, p := range g.Ports {
				ports = append(ports, p.Element+"."+p.Class)
			}
			fmt.Fprintf(&sb, "  PORTS(%s)\n", strings.Join(ports, ", "))
		}
		formatRestrictions(&sb, g.Restrictions)
		sb.WriteString("END\n")
	}
	for _, tt := range s.Threads() {
		var parts []string
		for _, ref := range tt.Path {
			parts = append(parts, ref.String())
		}
		fmt.Fprintf(&sb, "\nTHREAD %s = (%s)\n", tt.Name, strings.Join(parts, " :: "))
	}
	for _, r := range s.Restrictions() {
		if r.Owner != s.Name {
			continue // element/group restrictions already emitted
		}
		fmt.Fprintf(&sb, "\nRESTRICTION %q:\n  %s ;\n", r.Name, Source(r.F))
	}
	return sb.String()
}

func formatParams(params []spec.ParamDecl) string {
	if len(params) == 0 {
		return ""
	}
	var parts []string
	for _, p := range params {
		parts = append(parts, p.Name+": "+p.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func formatRestrictions(sb *strings.Builder, rs []spec.Restriction) {
	if len(rs) == 0 {
		return
	}
	sb.WriteString("  RESTRICTIONS\n")
	for _, r := range rs {
		fmt.Fprintf(sb, "    %q:\n      %s ;\n", r.Name, Source(r.F))
	}
}

// Source renders a formula in the concrete gemlang syntax; parsing the
// result yields a semantically identical formula. It panics on formula
// shapes that have no surface syntax (there are none among the exported
// constructors).
func Source(f logic.Formula) string {
	var b strings.Builder
	writeSource(&b, f)
	return b.String()
}

// writeSource appends Source(f) to b, so a formula renders into one
// buffer instead of one string per subformula.
func writeSource(b *strings.Builder, f logic.Formula) {
	switch g := f.(type) {
	case logic.TrueF:
		b.WriteString("TRUE")
	case logic.FalseF:
		b.WriteString("FALSE")
	case logic.Occurred:
		put(b, "occurred(", g.Var, ")")
	case logic.New:
		put(b, "new(", g.Var, ")")
	case logic.Potential:
		put(b, "potential(", g.Var, ")")
	case logic.AtElement:
		put(b, g.Var, " @ ", g.Element)
	case logic.InClass:
		put(b, g.Var, " : ", g.Ref.String())
	case logic.AtControl:
		put(b, g.Var, " at ", g.Ref.String())
	case logic.OnThread:
		put(b, g.X, " in ", g.T)
	case logic.ThreadsDistinct:
		put(b, "distinct(", g.T1, ", ", g.T2, ")")
	case logic.Enables:
		put(b, g.X, " |> ", g.Y)
	case logic.ElemOrdered:
		put(b, g.X, " ~> ", g.Y)
	case logic.Precedes:
		put(b, g.X, " => ", g.Y)
	case logic.ConcurrentWith:
		put(b, g.X, " || ", g.Y)
	case logic.SameEvent:
		put(b, g.X, " = ", g.Y)
	case logic.ParamCmp:
		put(b, g.X, ".", g.P, " ", g.Op.String(), " ", g.Y, ".", g.Q)
	case logic.ParamConst:
		put(b, g.X, ".", g.P, " ", g.Op.String(), " ", sourceValue(g.V))
	case logic.CountDiff:
		max := "*"
		if !g.NoMax {
			max = strconv.Itoa(g.Max)
		}
		put(b, "COUNT(", g.A.String(), " - ", g.B.String(), " IN ", strconv.Itoa(g.Min), " .. ", max, ")")
	case logic.FIFOValues:
		put(b, "FIFO(", g.A.String(), ".", g.PA, " -> ", g.B.String(), ".", g.PB, ")")
	case logic.Not:
		b.WriteString("~(")
		writeSource(b, g.F)
		b.WriteString(")")
	case logic.And:
		writeJoined(b, g, " & ", "TRUE")
	case logic.Or:
		writeJoined(b, g, " | ", "FALSE")
	case logic.Implies:
		b.WriteString("(")
		writeSource(b, g.If)
		b.WriteString(" -> ")
		writeSource(b, g.Then)
		b.WriteString(")")
	case logic.Iff:
		b.WriteString("(")
		writeSource(b, g.A)
		b.WriteString(" <-> ")
		writeSource(b, g.B)
		b.WriteString(")")
	case logic.Box:
		b.WriteString("[] (")
		writeSource(b, g.F)
		b.WriteString(")")
	case logic.Diamond:
		b.WriteString("<> (")
		writeSource(b, g.F)
		b.WriteString(")")
	case logic.ForAll:
		writeQuantified(b, "FORALL", g.Var, g.Ref.String(), g.Body)
	case logic.Exists:
		writeQuantified(b, "EXISTS", g.Var, g.Ref.String(), g.Body)
	case logic.ExistsUnique:
		writeQuantified(b, "EXISTS1", g.Var, g.Ref.String(), g.Body)
	case logic.AtMostOne:
		writeQuantified(b, "ATMOST1", g.Var, g.Ref.String(), g.Body)
	case logic.ForAllThread:
		writeQuantified(b, "FORALLTHREAD", g.Var, g.Type, g.Body)
	case logic.ExistsThread:
		writeQuantified(b, "EXISTSTHREAD", g.Var, g.Type, g.Body)
	case logic.ForAllIn:
		b.WriteString(sourceUnion("FORALL", g.Var, g.Refs, g.Body))
	case logic.ExistsUniqueIn:
		b.WriteString(sourceUnion("EXISTS1", g.Var, g.Refs, g.Body))
	default:
		panic(fmt.Sprintf("gemlang: no surface syntax for %T", f))
	}
}

// put appends each part to b.
func put(b *strings.Builder, parts ...string) {
	for _, p := range parts {
		b.WriteString(p)
	}
}

// writeQuantified appends "((KIND v: domain) body)".
func writeQuantified(b *strings.Builder, kind, v, domain string, body logic.Formula) {
	put(b, "((", kind, " ", v, ": ", domain, ") ")
	writeSource(b, body)
	b.WriteString(")")
}

// sourceUnion renders a union-domain quantifier over the member
// classes. ForAllIn distributes over the union: a conjunction of one
// quantifier per class. ExistsUniqueIn does not; it is rendered as a
// disjunction over the classes of "exactly one in this class and none in
// the others", which means "exactly one in the union" only when no event
// belongs to two of the classes. Over overlapping classes it has no
// rendering, and sourceUnion panics as Source does on any shape without
// surface syntax.
func sourceUnion(kind, v string, refs []core.ClassRef, body logic.Formula) string {
	if kind == "FORALL" {
		var parts []string
		for _, ref := range refs {
			parts = append(parts, fmt.Sprintf("((FORALL %s: %s) %s)", v, ref, Source(body)))
		}
		return "(" + strings.Join(parts, " & ") + ")"
	}
	if a, b, ok := overlapping(refs); ok {
		panic(fmt.Sprintf("gemlang: no surface syntax for EXISTS1 over the overlapping classes %s and %s", a, b))
	}
	var parts []string
	for i, ref := range refs {
		var conj []string
		conj = append(conj, fmt.Sprintf("((EXISTS1 %s: %s) %s)", v, ref, Source(body)))
		for j, other := range refs {
			if j == i {
				continue
			}
			// Rendered exactly as Not{Exists{…}} would be, so reparsing
			// reaches the same fixpoint.
			conj = append(conj, fmt.Sprintf("~(((EXISTS %s: %s) %s))", v, other, Source(body)))
		}
		parts = append(parts, "("+strings.Join(conj, " & ")+")")
	}
	sort.Strings(parts)
	return "(" + strings.Join(parts, " | ") + ")"
}

// overlapping returns two members of refs that one event can match, and
// whether there are such: their elements are equal or either is empty
// (any element), and so are their classes.
func overlapping(refs []core.ClassRef) (a, b core.ClassRef, ok bool) {
	meet := func(x, y string) bool { return x == y || x == "" || y == "" }
	for j := range refs {
		for i := range refs[:j] {
			if meet(refs[i].Element, refs[j].Element) && meet(refs[i].Class, refs[j].Class) {
				return refs[i], refs[j], true
			}
		}
	}
	return a, b, false
}

func writeJoined(b *strings.Builder, fs []logic.Formula, sep, empty string) {
	if len(fs) == 0 {
		b.WriteString(empty)
		return
	}
	b.WriteString("(")
	for i, f := range fs {
		if i > 0 {
			b.WriteString(sep)
		}
		writeSource(b, f)
	}
	b.WriteString(")")
}

func sourceValue(v core.Value) string {
	if v.Kind == core.KindBool {
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return v.String() // ints bare, strings quoted
}
