package ada

import (
	"gem/internal/core"
	"gem/internal/lang"
	"gem/internal/logic"
	"gem/internal/spec"
)

// Spec builds the GEM specification of an ADA program: a group per task
// (task element, entry elements, variable elements) with entry
// AcceptStart as ports, plus the rendezvous restrictions:
//
//  1. Every AcceptStart is enabled by exactly one Call, and each Call
//     starts at most one rendezvous (prerequisite).
//  2. AcceptStart/AcceptEnd alternate at each entry element (rendezvous
//     intervals do not overlap per entry).
//  3. The caller's argument is transferred faithfully: if a Call enables
//     an AcceptStart and carries v, the AcceptStart carries the same v.
func Spec(p *Program) *spec.Spec {
	s := spec.New("ada-program")
	var ops lang.Decls
	for _, t := range p.Tasks {
		classes := []spec.EventClassDecl{
			{Name: "Call", Params: []spec.ParamDecl{
				{Name: "task", Type: "NAME"}, {Name: "entry", Type: "NAME"}, {Name: "v", Type: "INTEGER"},
			}},
			{Name: "Return", Params: []spec.ParamDecl{
				{Name: "entry", Type: "NAME"}, {Name: "result", Type: "INTEGER"},
			}},
		}
		local, external := ops.Process(procOps(t.Body))
		s.AddElement(&spec.ElementDecl{Name: t.Name, Events: append(classes, local...)})

		// The task group encloses the task element, its entries, and its
		// variables. AcceptStart ports admit entry calls from outside;
		// the Return port lets a completing rendezvous in another task
		// resume this task.
		members := []string{t.Name}
		ports := []core.Port{{Element: t.Name, Class: "Return"}}
		for _, e := range t.Entries {
			elem := EntryElement(t.Name, e)
			decl := &spec.ElementDecl{
				Name: elem,
				Events: []spec.EventClassDecl{
					{Name: "AcceptStart", Params: []spec.ParamDecl{
						{Name: "v", Type: "INTEGER"}, {Name: "caller", Type: "NAME"},
					}},
					{Name: "AcceptEnd", Params: []spec.ParamDecl{
						{Name: "caller", Type: "NAME"}, {Name: "result", Type: "INTEGER"},
					}},
				},
				Restrictions: []spec.Restriction{
					{
						Name: elem + ".call-accept-prereq",
						F:    logic.Prereq(core.Ref("", "Call"), core.Ref(elem, "AcceptStart")),
					},
					{
						Name: elem + ".arg-transfer",
						F:    argTransfer(elem),
					},
				},
			}
			s.AddElement(decl)
			members = append(members, elem)
			ports = append(ports, core.Port{Element: elem, Class: "AcceptStart"})
		}
		for _, v := range t.Vars {
			s.AddElement(&spec.ElementDecl{
				Name: VarElement(t.Name, v),
				Events: []spec.EventClassDecl{
					{Name: "Assign", Params: []spec.ParamDecl{{Name: "newval", Type: "INTEGER"}}},
				},
			})
			members = append(members, VarElement(t.Name, v))
		}
		// External shared elements the task touches join its group
		// (overlapping groups), so the task's flow may pass through them
		// and back into its entries and variables.
		members = append(members, external...)
		s.AddGroup(&spec.GroupDecl{
			Name:    "task." + t.Name,
			Members: members,
			Ports:   ports,
		})
	}
	ops.Declare(s)
	return s
}

// procOps lists the Op statements of a body in walk order.
func procOps(body []Stmt) []lang.Op {
	var out []lang.Op
	for _, st := range body {
		switch s := st.(type) {
		case Op:
			out = append(out, lang.Op(s))
		case Accept:
			out = append(out, procOps(s.Body)...)
		case Select:
			for _, alt := range s.Alts {
				out = append(out, procOps(alt.Accept.Body)...)
			}
			out = append(out, procOps(s.Else)...)
		case Repeat:
			out = append(out, procOps(s.Body)...)
		}
	}
	return out
}

// argTransfer: a Call carrying v enabling an AcceptStart implies the
// AcceptStart carries the same v (parameterless calls are exempt: the
// comparison is guarded on the Call having a v).
func argTransfer(entryElem string) logic.Formula {
	return logic.ForAll{
		Var: "_call", Ref: core.Ref("", "Call"),
		Body: logic.ForAll{
			Var: "_acc", Ref: core.Ref(entryElem, "AcceptStart"),
			Body: logic.Implies{
				If: logic.And{
					logic.Enables{X: "_call", Y: "_acc"},
					// Guard: the call carries an argument.
					paramPresent("_call", "v"),
				},
				Then: logic.ParamCmp{X: "_call", P: "v", Op: logic.OpEq, Y: "_acc", Q: "v"},
			},
		},
	}
}

// paramPresent tests parameter presence via self-equality (missing
// parameters fail every comparison, including with themselves).
func paramPresent(v, p string) logic.Formula {
	return logic.ParamCmp{X: v, P: p, Op: logic.OpEq, Y: v, Q: p}
}
