package rw

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/verify"
)

// Correspondences for the paper's Section 9 sat methodology: they map the
// significant program events of each solution to the problem events of
// the Section 8 specification. The monitor mapping is the paper's own
// correspondence table (ReqRead ↔ entry StartRead begin, StartRead ↔ the
// readernum update — here the entry's End, which is the same control
// point — etc.).

// MonitorCorrespondence maps the monitor solution's events to the
// problem's.
func MonitorCorrespondence() verify.Correspondence {
	mon := MonitorName
	return verify.Correspondence{Rules: []verify.Rule{
		// read chain
		{Match: core.Ref("", "Call"), Where: core.NewParams(core.P("entry", core.Str("StartRead"))),
			Element: "%s", Class: "Read", KeyParam: "@element", Chain: "read", Stage: 0},
		{Match: core.Ref(mon+".StartRead", "Begin"),
			Element: "db.control", Class: "ReqRead", KeyParam: "proc", Chain: "read", Stage: 1},
		{Match: core.Ref(mon+".StartRead", "End"),
			Element: "db.control", Class: "StartRead", KeyParam: "proc", Chain: "read", Stage: 2},
		{Match: core.Ref(DataElement, "Getval"),
			Element: "db.data", Class: "Getval", KeyParam: "proc", Chain: "read", Stage: 3,
			CopyParams: map[string]string{"oldval": "oldval"}},
		{Match: core.Ref(mon+".EndRead", "Begin"),
			Element: "db.control", Class: "EndRead", KeyParam: "proc", Chain: "read", Stage: 4},
		{Match: core.Ref("", "Return"), Where: core.NewParams(core.P("entry", core.Str("EndRead"))),
			Element: "%s", Class: "FinishRead", KeyParam: "@element", Chain: "read", Stage: 5},
		// write chain
		{Match: core.Ref("", "Call"), Where: core.NewParams(core.P("entry", core.Str("StartWrite"))),
			Element: "%s", Class: "Write", KeyParam: "@element", Chain: "write", Stage: 0},
		{Match: core.Ref(mon+".StartWrite", "Begin"),
			Element: "db.control", Class: "ReqWrite", KeyParam: "proc", Chain: "write", Stage: 1},
		{Match: core.Ref(mon+".StartWrite", "End"),
			Element: "db.control", Class: "StartWrite", KeyParam: "proc", Chain: "write", Stage: 2},
		{Match: core.Ref(DataElement, "Assign"),
			Element: "db.data", Class: "Assign", KeyParam: "proc", Chain: "write", Stage: 3,
			CopyParams: map[string]string{"newval": "newval"}},
		{Match: core.Ref(mon+".EndWrite", "Begin"),
			Element: "db.control", Class: "EndWrite", KeyParam: "proc", Chain: "write", Stage: 4},
		{Match: core.Ref("", "Return"), Where: core.NewParams(core.P("entry", core.Str("EndWrite"))),
			Element: "%s", Class: "FinishWrite", KeyParam: "@element", Chain: "write", Stage: 5},
	}}
}

// CSPCorrespondence maps the CSP solution's events (synchronous message
// exchanges with the controller) to the problem's. The simultaneity of
// CSP exchange leaves some adjacent significant events unordered; those
// stages are Relaxed (the projection linearizes consistently).
func CSPCorrespondence(w Workload) verify.Correspondence {
	var rules []verify.Rule
	for i := 1; i <= w.Readers; i++ {
		name := fmt.Sprintf("r%d", i)
		outE := csp.OutElement(name, ControllerName)
		inpE := csp.InpElement(ControllerName, name)
		rules = append(rules,
			verify.Rule{Match: core.Ref(outE, "Req"), Where: core.NewParams(core.P("v", core.Int(msgStartRead))),
				Element: "%s", Class: "Read", KeyParam: "proc", Chain: "read", Stage: 0},
			verify.Rule{Match: core.Ref(inpE, "Req"), Where: core.NewParams(core.P("v", core.Int(msgStartRead))),
				Element: "db.control", Class: "ReqRead", KeyParam: "partner", Chain: "read", Stage: 1, Relaxed: true},
			verify.Rule{Match: core.Ref(inpE, "End"), Where: core.NewParams(core.P("v", core.Int(msgStartRead))),
				Element: "db.control", Class: "StartRead", KeyParam: "partner", Chain: "read", Stage: 2},
			verify.Rule{Match: core.Ref(DataElement, "Getval"), Where: core.NewParams(core.P("proc", core.Str(name))),
				Element: "db.data", Class: "Getval", KeyParam: "proc", Chain: "read", Stage: 3, Relaxed: true,
				CopyParams: map[string]string{"oldval": "oldval"}},
			verify.Rule{Match: core.Ref(inpE, "End"), Where: core.NewParams(core.P("v", core.Int(msgEndRead))),
				Element: "db.control", Class: "EndRead", KeyParam: "partner", Chain: "read", Stage: 4},
			verify.Rule{Match: core.Ref(outE, "End"), Where: core.NewParams(core.P("v", core.Int(msgEndRead))),
				Element: "%s", Class: "FinishRead", KeyParam: "proc", Chain: "read", Stage: 5, Relaxed: true},
		)
	}
	for j := 1; j <= w.Writers; j++ {
		name := fmt.Sprintf("w%d", j)
		outE := csp.OutElement(name, ControllerName)
		inpE := csp.InpElement(ControllerName, name)
		rules = append(rules,
			verify.Rule{Match: core.Ref(outE, "Req"), Where: core.NewParams(core.P("v", core.Int(msgStartWrite))),
				Element: "%s", Class: "Write", KeyParam: "proc", Chain: "write", Stage: 0},
			verify.Rule{Match: core.Ref(inpE, "Req"), Where: core.NewParams(core.P("v", core.Int(msgStartWrite))),
				Element: "db.control", Class: "ReqWrite", KeyParam: "partner", Chain: "write", Stage: 1, Relaxed: true},
			verify.Rule{Match: core.Ref(inpE, "End"), Where: core.NewParams(core.P("v", core.Int(msgStartWrite))),
				Element: "db.control", Class: "StartWrite", KeyParam: "partner", Chain: "write", Stage: 2},
			verify.Rule{Match: core.Ref(DataElement, "Assign"), Where: core.NewParams(core.P("proc", core.Str(name))),
				Element: "db.data", Class: "Assign", KeyParam: "proc", Chain: "write", Stage: 3, Relaxed: true,
				CopyParams: map[string]string{"newval": "newval"}},
			verify.Rule{Match: core.Ref(inpE, "End"), Where: core.NewParams(core.P("v", core.Int(msgEndWrite))),
				Element: "db.control", Class: "EndWrite", KeyParam: "partner", Chain: "write", Stage: 4},
			verify.Rule{Match: core.Ref(outE, "End"), Where: core.NewParams(core.P("v", core.Int(msgEndWrite))),
				Element: "%s", Class: "FinishWrite", KeyParam: "proc", Chain: "write", Stage: 5, Relaxed: true},
		)
	}
	return verify.Correspondence{Rules: rules}
}

// AdaCorrespondence maps the ADA solution's rendezvous events to the
// problem's.
func AdaCorrespondence() verify.Correspondence {
	ctrl := ControllerName
	return verify.Correspondence{Rules: []verify.Rule{
		// read chain
		{Match: core.Ref("", "Call"), Where: core.NewParams(core.P("entry", core.Str("StartRead"))),
			Element: "%s", Class: "Read", KeyParam: "@element", Chain: "read", Stage: 0},
		{Match: core.Ref(ctrl+".StartRead", "AcceptStart"),
			Element: "db.control", Class: "ReqRead", KeyParam: "caller", Chain: "read", Stage: 1},
		{Match: core.Ref(ctrl+".StartRead", "AcceptEnd"),
			Element: "db.control", Class: "StartRead", KeyParam: "caller", Chain: "read", Stage: 2},
		{Match: core.Ref(DataElement, "Getval"),
			Element: "db.data", Class: "Getval", KeyParam: "proc", Chain: "read", Stage: 3,
			CopyParams: map[string]string{"oldval": "oldval"}},
		{Match: core.Ref(ctrl+".EndRead", "AcceptStart"),
			Element: "db.control", Class: "EndRead", KeyParam: "caller", Chain: "read", Stage: 4},
		{Match: core.Ref("", "Return"), Where: core.NewParams(core.P("entry", core.Str("EndRead"))),
			Element: "%s", Class: "FinishRead", KeyParam: "@element", Chain: "read", Stage: 5},
		// write chain
		{Match: core.Ref("", "Call"), Where: core.NewParams(core.P("entry", core.Str("StartWrite"))),
			Element: "%s", Class: "Write", KeyParam: "@element", Chain: "write", Stage: 0},
		{Match: core.Ref(ctrl+".StartWrite", "AcceptStart"),
			Element: "db.control", Class: "ReqWrite", KeyParam: "caller", Chain: "write", Stage: 1},
		{Match: core.Ref(ctrl+".StartWrite", "AcceptEnd"),
			Element: "db.control", Class: "StartWrite", KeyParam: "caller", Chain: "write", Stage: 2},
		{Match: core.Ref(DataElement, "Assign"),
			Element: "db.data", Class: "Assign", KeyParam: "proc", Chain: "write", Stage: 3,
			CopyParams: map[string]string{"newval": "newval"}},
		{Match: core.Ref(ctrl+".EndWrite", "AcceptStart"),
			Element: "db.control", Class: "EndWrite", KeyParam: "caller", Chain: "write", Stage: 4},
		{Match: core.Ref("", "Return"), Where: core.NewParams(core.P("entry", core.Str("EndWrite"))),
			Element: "%s", Class: "FinishWrite", KeyParam: "@element", Chain: "write", Stage: 5},
	}}
}
