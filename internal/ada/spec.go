package ada

import (
	"slices"

	"gem/internal/core"
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
	for _, t := range p.Tasks {
		classes := []spec.EventClassDecl{
			{Name: "Call", Params: []spec.ParamDecl{
				{Name: "task", Type: "NAME"}, {Name: "entry", Type: "NAME"}, {Name: "v", Type: "INTEGER"},
			}},
			{Name: "Return", Params: []spec.ParamDecl{
				{Name: "entry", Type: "NAME"}, {Name: "result", Type: "INTEGER"},
			}},
		}
		classes = append(classes, opClasses(t)...)
		s.AddElement(&spec.ElementDecl{Name: t.Name, Events: classes})

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
		members = append(members, externalElementsOf(t.Body)...)
		s.AddGroup(&spec.GroupDecl{
			Name:    "task." + t.Name,
			Members: members,
			Ports:   ports,
		})
	}
	addExternalElements(s, p)
	return s
}

// externalElementsOf lists the distinct external elements a body touches.
func externalElementsOf(body []Stmt) []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case Op:
				if s.Element != "" && !seen[s.Element] {
					seen[s.Element] = true
					out = append(out, s.Element)
				}
			case Accept:
				walk(s.Body)
			case Select:
				for _, alt := range s.Alts {
					walk(alt.Accept.Body)
				}
				walk(s.Else)
			case Repeat:
				walk(s.Body)
			}
		}
	}
	walk(body)
	return out
}

// addExternalElements declares the shared elements accessed via
// Op{Element: …} with Variable-style classes, plus the reads-last-assign
// restriction when both Assign and Getval appear.
func addExternalElements(s *spec.Spec, p *Program) {
	classes := make(map[string]map[string]map[string]bool)
	var order []string
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch op := st.(type) {
			case Op:
				if op.Element == "" {
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
			case Accept:
				walk(op.Body)
			case Select:
				for _, alt := range op.Alts {
					walk(alt.Accept.Body)
				}
				walk(op.Else)
			case Repeat:
				walk(op.Body)
			}
		}
	}
	for _, t := range p.Tasks {
		walk(t.Body)
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

func opClasses(t Task) []spec.EventClassDecl {
	seen := make(map[string]map[string]bool)
	var order []string
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case Op:
				if s.Element != "" {
					continue
				}
				if seen[s.Class] == nil {
					seen[s.Class] = make(map[string]bool)
					order = append(order, s.Class)
				}
				for p := range s.Params {
					seen[s.Class][p] = true
				}
			case Accept:
				walk(s.Body)
			case Select:
				for _, alt := range s.Alts {
					walk(alt.Accept.Body)
				}
				walk(s.Else)
			case Repeat:
				walk(s.Body)
			}
		}
	}
	walk(t.Body)
	var out []spec.EventClassDecl
	for _, class := range order {
		var names []string
		for p := range seen[class] {
			names = append(names, p)
		}
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
		var params []spec.ParamDecl
		for _, p := range names {
			params = append(params, spec.ParamDecl{Name: p, Type: "INTEGER"})
		}
		out = append(out, spec.EventClassDecl{Name: class, Params: params})
	}
	return out
}
