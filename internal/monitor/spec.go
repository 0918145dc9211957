package monitor

import (
	"gem/internal/core"
	"gem/internal/lang"
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
	// The shared elements accessed via Op{Element: …}, the data the
	// monitor guards, lie outside the monitor group, as in the paper.
	var ops lang.Decls
	for _, proc := range p.Processes {
		classes := []spec.EventClassDecl{
			{Name: "Call", Params: callParams},
			{Name: "Return", Params: []spec.ParamDecl{
				{Name: "entry", Type: "NAME"}, {Name: "result", Type: "INTEGER"},
			}},
		}
		local, _ := ops.Process(procOps(proc))
		s.AddElement(&spec.ElementDecl{Name: proc.Name, Events: append(classes, local...)})
	}
	ops.Declare(s)
	return s
}

// procOps lists a process's Op statements in program order.
func procOps(proc Process) []lang.Op {
	var out []lang.Op
	for _, st := range proc.Body {
		if op, ok := st.(Op); ok {
			out = append(out, lang.Op(op))
		}
	}
	return out
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
