package spec

import (
	"gem/internal/core"
	"gem/internal/logic"
)

// This file provides the restriction of the paper's stock Variable
// element type (Section 8.2). The type itself, and its Section 6
// refinements, are declared in gemlang source.

// ReadsLastAssign builds the paper's Variable restriction for the named
// element: for every Assign a and Getval g at the element with a before g
// in the element order and no intervening Assign, a.newval = g.oldval.
func ReadsLastAssign(element string) logic.Formula {
	assign := core.Ref(element, "Assign")
	getval := core.Ref(element, "Getval")
	noIntervening := logic.Not{F: logic.Exists{
		Var: "_a2", Ref: assign,
		Body: logic.And{
			logic.ElemOrdered{X: "_a", Y: "_a2"},
			logic.ElemOrdered{X: "_a2", Y: "_g"},
		},
	}}
	return logic.ForAll{
		Var: "_a", Ref: assign,
		Body: logic.ForAll{
			Var: "_g", Ref: getval,
			Body: logic.Implies{
				If:   logic.And{logic.ElemOrdered{X: "_a", Y: "_g"}, noIntervening},
				Then: logic.ParamCmp{X: "_a", P: "newval", Op: logic.OpEq, Y: "_g", Q: "oldval"},
			},
		},
	}
}
