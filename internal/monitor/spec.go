package monitor

import (
	"slices"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/spec"
)

// Spec builds the GEM specification of a monitor program: the Monitor
// group (lock, entries, variables, conditions — as in the paper's
// "Monitor = GROUP TYPE(lock, {entry}, {cond}, init, {var})"), one element
// per client process, and the Monitor primitive's restrictions:
//
//  1. Release of a wait must be enabled by exactly one Signal, and every
//     Signal can enable at most one Release (the paper's prerequisite
//     example).
//  2. All monitor-internal events are totally ordered by the temporal
//     order — sequential execution of monitor entries, which the paper
//     reports proving of the Monitor primitive.
//  3. Entry activations pair up: each Begin is followed by an End of its
//     entry before another Begin of the same entry (entries are not
//     re-entered concurrently).
//  4. Every Wait is eventually followed in the element order by its
//     Release (only when signalled — expressed per computation via the
//     prerequisite, not as liveness).
func Spec(p *Program) *spec.Spec {
	m := p.Monitor
	s := spec.New(m.Name + "-program")

	procParam := spec.ParamDecl{Name: "proc", Type: "NAME"}
	lock := &spec.ElementDecl{
		Name: m.LockElement(),
		Events: []spec.EventClassDecl{
			{Name: "Acq", Params: []spec.ParamDecl{procParam}},
			{Name: "Rel", Params: []spec.ParamDecl{procParam}},
		},
	}
	s.AddElement(lock)
	members := []string{m.LockElement()}

	for _, e := range m.Entries {
		beginParams := []spec.ParamDecl{procParam}
		for _, arg := range e.Args {
			beginParams = append(beginParams, spec.ParamDecl{Name: arg, Type: "INTEGER"})
		}
		endParams := append(append([]spec.ParamDecl(nil), beginParams...),
			spec.ParamDecl{Name: "result", Type: "INTEGER"})
		s.AddElement(&spec.ElementDecl{
			Name: m.EntryElement(e.Name),
			Events: []spec.EventClassDecl{
				{Name: "Begin", Params: beginParams},
				{Name: "End", Params: endParams},
			},
		})
		members = append(members, m.EntryElement(e.Name))
	}
	for _, v := range m.Vars {
		s.AddElement(&spec.ElementDecl{
			Name: m.VarElement(v),
			Events: []spec.EventClassDecl{
				{Name: "Assign", Params: []spec.ParamDecl{
					{Name: "newval", Type: "INTEGER"}, procParam, {Name: "entry", Type: "NAME"},
				}},
			},
		})
		members = append(members, m.VarElement(v))
	}
	for _, c := range m.Conds {
		cond := &spec.ElementDecl{
			Name: m.CondElement(c),
			Events: []spec.EventClassDecl{
				{Name: "Wait", Params: []spec.ParamDecl{procParam}},
				{Name: "Signal", Params: []spec.ParamDecl{procParam}},
				{Name: "Release", Params: []spec.ParamDecl{procParam}},
			},
			Restrictions: []spec.Restriction{{
				Name: m.CondElement(c) + ".signal-release-prereq",
				F: logic.Prereq(
					core.Ref(m.CondElement(c), "Signal"),
					core.Ref(m.CondElement(c), "Release"),
				),
			}},
		}
		s.AddElement(cond)
		members = append(members, m.CondElement(c))
	}

	group := &spec.GroupDecl{
		Name:    m.Name,
		Members: members,
		// Callers reach the monitor through the lock: Acq is the port.
		Ports: []core.Port{{Element: m.LockElement(), Class: "Acq"}},
	}
	group.Restrictions = append(group.Restrictions,
		spec.Restriction{
			Name: m.Name + ".sequential-execution",
			F:    internalTotalOrder(m),
		},
		spec.Restriction{
			Name: m.Name + ".entries-paired",
			F:    entriesPaired(m),
		},
	)
	s.AddGroup(group)

	// Call events carry the entry name plus the call's arguments under
	// their formal names.
	callParams := []spec.ParamDecl{{Name: "entry", Type: "NAME"}}
	seenFormal := map[string]bool{}
	for _, e := range m.Entries {
		for _, arg := range e.Args {
			if !seenFormal[arg] {
				seenFormal[arg] = true
				callParams = append(callParams, spec.ParamDecl{Name: arg, Type: "INTEGER"})
			}
		}
	}
	for _, proc := range p.Processes {
		classes := []spec.EventClassDecl{
			{Name: "Call", Params: callParams},
			{Name: "Return", Params: []spec.ParamDecl{
				{Name: "entry", Type: "NAME"}, {Name: "result", Type: "INTEGER"},
			}},
		}
		classes = append(classes, opClasses(proc)...)
		s.AddElement(&spec.ElementDecl{Name: proc.Name, Events: classes})
	}
	addExternalElements(s, p)
	return s
}

// addExternalElements declares the shared elements accessed via
// Op{Element: …} — the data the monitor guards, located outside the
// monitor group per the paper. Each gets Variable-style Assign/Getval
// classes (with the accessing process recorded) and, for elements with
// both classes, the paper's reads-last-assign restriction.
func addExternalElements(s *spec.Spec, p *Program) {
	classes := make(map[string]map[string]map[string]bool) // elem -> class -> params
	var order []string
	for _, proc := range p.Processes {
		for _, st := range proc.Body {
			op, ok := st.(Op)
			if !ok || op.Element == "" {
				continue
			}
			if classes[op.Element] == nil {
				classes[op.Element] = make(map[string]map[string]bool)
				order = append(order, op.Element)
			}
			if classes[op.Element][op.Class] == nil {
				classes[op.Element][op.Class] = make(map[string]bool)
			}
			for prm := range op.Params {
				classes[op.Element][op.Class][prm] = true
			}
			classes[op.Element][op.Class]["proc"] = true
			if op.Class == "Getval" {
				classes[op.Element][op.Class]["oldval"] = true
			}
		}
	}
	for _, elem := range order {
		decl := &spec.ElementDecl{Name: elem}
		var classNames []string
		for c := range classes[elem] {
			classNames = append(classNames, c)
		}
		slices.Sort(classNames)
		for _, c := range classNames {
			var paramNames []string
			for prm := range classes[elem][c] {
				paramNames = append(paramNames, prm)
			}
			slices.Sort(paramNames)
			ec := spec.EventClassDecl{Name: c}
			for _, prm := range paramNames {
				typ := "INTEGER"
				if prm == "proc" {
					typ = "NAME"
				}
				ec.Params = append(ec.Params, spec.ParamDecl{Name: prm, Type: typ})
			}
			decl.Events = append(decl.Events, ec)
		}
		if _, hasA := classes[elem]["Assign"]; hasA {
			if _, hasG := classes[elem]["Getval"]; hasG {
				decl.Restrictions = append(decl.Restrictions, spec.Restriction{
					Name: elem + ".reads-last-assign",
					F:    spec.ReadsLastAssign(elem),
				})
			}
		}
		s.AddElement(decl)
	}
}

// internalTotalOrder builds the restriction that any two events at the
// monitor's member elements are temporally ordered.
func internalTotalOrder(m *Monitor) logic.Formula {
	refs := internalRefs(m)
	return logic.ForAllIn{
		Var: "_x", Refs: refs,
		Body: logic.ForAllIn{
			Var: "_y", Refs: refs,
			Body: logic.Or{
				logic.SameEvent{X: "_x", Y: "_y"},
				logic.Precedes{X: "_x", Y: "_y"},
				logic.Precedes{X: "_y", Y: "_x"},
			},
		},
	}
}

// entriesPaired: at every history, an entry has at least as many Begins
// as Ends, and every End belongs to the same process as a prior Begin.
// (Entries CAN have several open activations at once: an activation
// suspended on a condition leaves the entry "begun but not ended" while
// other processes enter — so strict Begin/End alternation would be
// wrong.)
func entriesPaired(m *Monitor) logic.Formula {
	var out logic.And
	for _, e := range m.Entries {
		begin := core.Ref(m.EntryElement(e.Name), "Begin")
		end := core.Ref(m.EntryElement(e.Name), "End")
		out = append(out,
			logic.Box{F: logic.CountDiff{A: begin, B: end, Min: 0, NoMax: true}},
			logic.ForAll{Var: "_end", Ref: end, Body: logic.Exists{
				Var: "_begin", Ref: begin,
				Body: logic.And{
					logic.ElemOrdered{X: "_begin", Y: "_end"},
					logic.ParamCmp{X: "_begin", P: "proc", Op: logic.OpEq, Y: "_end", Q: "proc"},
				},
			}},
		)
	}
	return out
}

func internalRefs(m *Monitor) []core.ClassRef {
	var refs []core.ClassRef
	add := func(elem string, classes ...string) {
		for _, c := range classes {
			refs = append(refs, core.Ref(elem, c))
		}
	}
	add(m.LockElement(), "Acq", "Rel")
	for _, e := range m.Entries {
		add(m.EntryElement(e.Name), "Begin", "End")
	}
	for _, v := range m.Vars {
		add(m.VarElement(v), "Assign")
	}
	for _, c := range m.Conds {
		add(m.CondElement(c), "Wait", "Signal", "Release")
	}
	return refs
}

// opClasses collects the distinct local Op classes a process uses, with
// their integer parameters declared.
func opClasses(proc Process) []spec.EventClassDecl {
	seen := make(map[string]map[string]bool)
	order := []string{}
	for _, st := range proc.Body {
		op, ok := st.(Op)
		if !ok || op.Element != "" {
			continue
		}
		if seen[op.Class] == nil {
			seen[op.Class] = make(map[string]bool)
			order = append(order, op.Class)
		}
		for p := range op.Params {
			seen[op.Class][p] = true
		}
	}
	var out []spec.EventClassDecl
	for _, class := range order {
		var params []spec.ParamDecl
		var names []string
		for p := range seen[class] {
			names = append(names, p)
		}
		// deterministic order
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
		for _, p := range names {
			params = append(params, spec.ParamDecl{Name: p, Type: "INTEGER"})
		}
		out = append(out, spec.EventClassDecl{Name: class, Params: params})
	}
	return out
}
