package csp

import (
	"slices"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/spec"
)

// Spec builds the GEM specification of a CSP program: one element per
// process (local events), input/output elements per communicating pair,
// per-process groups overlapping with channel groups (the paper's Section
// 4 sketch of processes linked by a channel group), and the CSP
// primitive's restrictions:
//
//  1. Simultaneity of I/O exchange (the paper's restriction): each
//     out.End is enabled by exactly one inp.Req and vice versa, so
//     inp.req ⊳ out.end ⟺ out.req ⊳ inp.end.
//  2. Each End is the outcome of its own Req (same-element prerequisite).
//  3. Message-value transfer: if out.Req enables inp.End, their values
//     are equal.
func Spec(p *Program) *spec.Spec {
	s := spec.New("csp-program")
	pairs := communicationPairs(p)

	for _, proc := range p.Processes {
		s.AddElement(&spec.ElementDecl{Name: proc.Name, Events: opClasses(proc)})
	}

	procGroups := make(map[string][]string, len(p.Processes))
	for _, proc := range p.Processes {
		procGroups[proc.Name] = []string{proc.Name}
	}

	commParams := []spec.ParamDecl{
		{Name: "v", Type: "INTEGER"},
		{Name: "proc", Type: "NAME"},
		{Name: "partner", Type: "NAME"},
	}
	for _, pair := range pairs {
		sender, receiver := pair[0], pair[1]
		outElem := OutElement(sender, receiver)
		inpElem := InpElement(receiver, sender)
		s.AddElement(&spec.ElementDecl{
			Name: outElem,
			Events: []spec.EventClassDecl{
				{Name: "Req", Params: commParams},
				{Name: "End", Params: commParams},
			},
		})
		s.AddElement(&spec.ElementDecl{
			Name: inpElem,
			Events: []spec.EventClassDecl{
				{Name: "Req", Params: commParams},
				{Name: "End", Params: commParams},
			},
		})
		procGroups[sender] = append(procGroups[sender], outElem)
		procGroups[receiver] = append(procGroups[receiver], inpElem)

		// The channel group makes the two endpoint elements mutually
		// accessible, modelling the paper's "G3 as a message channel".
		chanGroup := &spec.GroupDecl{
			Name:    "chan." + sender + "." + receiver,
			Members: []string{outElem, inpElem},
		}
		outReq := core.Ref(outElem, "Req")
		outEnd := core.Ref(outElem, "End")
		inpReq := core.Ref(inpElem, "Req")
		inpEnd := core.Ref(inpElem, "End")
		chanGroup.Restrictions = []spec.Restriction{
			{Name: chanGroup.Name + ".simultaneity-out", F: logic.Prereq(inpReq, outEnd)},
			{Name: chanGroup.Name + ".simultaneity-inp", F: logic.Prereq(outReq, inpEnd)},
			{Name: chanGroup.Name + ".own-req-out", F: logic.Prereq(outReq, outEnd)},
			{Name: chanGroup.Name + ".own-req-inp", F: logic.Prereq(inpReq, inpEnd)},
			{Name: chanGroup.Name + ".value-transfer", F: valueTransfer(outReq, inpEnd)},
		}
		s.AddGroup(chanGroup)
	}

	// External shared elements join the proc group of every process that
	// accesses them (overlapping groups, as in the paper's Section 4
	// example), so a process's flow may pass through the shared element
	// and back into its own communication endpoints.
	for _, proc := range p.Processes {
		for _, elem := range externalElementsOf(proc.Body) {
			procGroups[proc.Name] = append(procGroups[proc.Name], elem)
		}
	}
	for name, members := range procGroups {
		s.AddGroup(&spec.GroupDecl{Name: "proc." + name, Members: members})
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
			case Alt:
				for _, br := range s.Branches {
					walk(br.Body)
				}
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
			case Alt:
				for _, br := range op.Branches {
					walk(br.Body)
				}
			case Repeat:
				walk(op.Body)
			}
		}
	}
	for _, proc := range p.Processes {
		walk(proc.Body)
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

// valueTransfer: if an out.Req enables an inp.End, the transmitted values
// agree — the paper's send/receive parameter-equality restriction.
func valueTransfer(outReq, inpEnd core.ClassRef) logic.Formula {
	return logic.ForAll{
		Var: "_or", Ref: outReq,
		Body: logic.ForAll{
			Var: "_ie", Ref: inpEnd,
			Body: logic.Implies{
				If:   logic.Enables{X: "_or", Y: "_ie"},
				Then: logic.ParamCmp{X: "_or", P: "v", Op: logic.OpEq, Y: "_ie", Q: "v"},
			},
		},
	}
}

// communicationPairs returns the (sender, receiver) process-name pairs
// that appear in the program, in first-appearance order.
func communicationPairs(p *Program) [][2]string {
	var out [][2]string
	seen := make(map[[2]string]bool)
	add := func(sender, receiver string) {
		pair := [2]string{sender, receiver}
		if !seen[pair] {
			seen[pair] = true
			out = append(out, pair)
		}
	}
	var walk func(proc string, body []Stmt)
	walk = func(proc string, body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case Send:
				add(proc, s.To)
			case Recv:
				add(s.From, proc)
			case Alt:
				for _, br := range s.Branches {
					if br.Comm != nil {
						walk(proc, []Stmt{br.Comm})
					}
					walk(proc, br.Body)
				}
			case Repeat:
				walk(proc, s.Body)
			}
		}
	}
	for _, proc := range p.Processes {
		walk(proc.Name, proc.Body)
	}
	return out
}

// opClasses collects the local Op classes of a process.
func opClasses(proc Process) []spec.EventClassDecl {
	seen := make(map[string]map[string]bool)
	var order []string
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case Op:
				if s.Element != "" {
					continue // external ops are declared on their own elements
				}
				if seen[s.Class] == nil {
					seen[s.Class] = make(map[string]bool)
					order = append(order, s.Class)
				}
				for p := range s.Params {
					seen[s.Class][p] = true
				}
			case Alt:
				for _, br := range s.Branches {
					walk(br.Body)
				}
			case Repeat:
				walk(s.Body)
			}
		}
	}
	walk(proc.Body)
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
