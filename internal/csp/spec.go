package csp

import (
	"gem/internal/core"
	"gem/internal/lang"
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

	var ops lang.Decls
	external := make([][]string, len(p.Processes))
	for i, proc := range p.Processes {
		var local []spec.EventClassDecl
		local, external[i] = ops.Process(procOps(proc.Body))
		s.AddElement(&spec.ElementDecl{Name: proc.Name, Events: local})
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
	for i, proc := range p.Processes {
		procGroups[proc.Name] = append(procGroups[proc.Name], external[i]...)
	}
	for name, members := range procGroups {
		s.AddGroup(&spec.GroupDecl{Name: "proc." + name, Members: members})
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
		case Alt:
			for _, br := range s.Branches {
				out = append(out, procOps(br.Body)...)
			}
		case Repeat:
			out = append(out, procOps(s.Body)...)
		}
	}
	return out
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
