package boundedbuf

import (
	"fmt"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/verify"
)

// Correspondences for the sat methodology (experiment E7, buffer
// columns): program events → problem events.

// MonitorCorrespondence maps the monitor solution. The commit points are
// the stores inside the monitor, not the entry Ends: with Hoare signal
// semantics a signalled process completes its entry before the signaller
// finishes its own, so entry Ends can be reordered across the
// capacity-changing updates. A deposit commits at the cell store
// (s<k> := v, which carries the item), a fetch at the tmp load
// (tmp := s<k>) — both ordered correctly with respect to the count
// guards.
func MonitorCorrespondence(capacity int) verify.Correspondence {
	rules := []verify.Rule{
		{Match: core.Ref("", "Call"), Where: core.NewParams(core.P("entry", core.Str("deposit"))),
			Element: "%s", Class: "Produce", KeyParam: "@element", Chain: "produce", Stage: 0,
			CopyParams: map[string]string{"item": "v"}},
	}
	for k := 0; k < capacity; k++ {
		rules = append(rules, verify.Rule{
			Match:   core.Ref(fmt.Sprintf("%s.s%d", MonitorName, k), "Assign"),
			Where:   core.NewParams(core.P("entry", core.Str("deposit"))),
			Element: BufferElement, Class: "Deposit", KeyParam: "proc", Chain: "produce", Stage: 1,
			CopyParams: map[string]string{"item": "newval"}})
	}
	rules = append(rules,
		verify.Rule{Match: core.Ref(MonitorName+".tmp", "Assign"), Where: core.NewParams(core.P("entry", core.Str("fetch"))),
			Element: BufferElement, Class: "Fetch", KeyParam: "proc", Chain: "consume", Stage: 0,
			CopyParams: map[string]string{"item": "newval"}},
		verify.Rule{Match: core.Ref("", "Return"), Where: core.NewParams(core.P("entry", core.Str("fetch"))),
			Element: "%s", Class: "Consume", KeyParam: "@element", Chain: "consume", Stage: 1,
			CopyParams: map[string]string{"item": "result"}},
	)
	return verify.Correspondence{Rules: rules}
}

// CSPCorrespondence maps the CSP solution: a deposit is the buffer's
// acceptance of a producer's send; a fetch is the buffer's send to a
// consumer.
func CSPCorrespondence(w Workload) verify.Correspondence {
	var rules []verify.Rule
	for i := 1; i <= w.Producers; i++ {
		name := ProducerName(i)
		rules = append(rules,
			verify.Rule{Match: core.Ref(csp.OutElement(name, BufferTask), "Req"),
				Element: "%s", Class: "Produce", KeyParam: "proc", Chain: "produce", Stage: 0,
				CopyParams: map[string]string{"item": "v"}},
			verify.Rule{Match: core.Ref(csp.InpElement(BufferTask, name), "End"),
				Element: BufferElement, Class: "Deposit", KeyParam: "partner", Chain: "produce", Stage: 1,
				CopyParams: map[string]string{"item": "v"}},
		)
	}
	for j := 1; j <= w.Consumers; j++ {
		name := ConsumerName(j)
		rules = append(rules,
			verify.Rule{Match: core.Ref(csp.OutElement(BufferTask, name), "Req"),
				Element: BufferElement, Class: "Fetch", KeyParam: "partner", Chain: "consume", Stage: 0,
				CopyParams: map[string]string{"item": "v"}},
			verify.Rule{Match: core.Ref(csp.InpElement(name, BufferTask), "End"),
				Element: "%s", Class: "Consume", KeyParam: "proc", Chain: "consume", Stage: 1,
				CopyParams: map[string]string{"item": "v"}},
		)
	}
	return verify.Correspondence{Rules: rules}
}

// AdaCorrespondence maps the ADA solution: a deposit is the acceptance of
// Put (the AcceptStart carries the argument; the guard has already
// checked capacity), a fetch completes at Get's AcceptEnd (which carries
// the replied value).
func AdaCorrespondence() verify.Correspondence {
	return verify.Correspondence{Rules: []verify.Rule{
		{Match: core.Ref("", "Call"), Where: core.NewParams(core.P("entry", core.Str("Put"))),
			Element: "%s", Class: "Produce", KeyParam: "@element", Chain: "produce", Stage: 0,
			CopyParams: map[string]string{"item": "v"}},
		{Match: core.Ref(BufferTask+".Put", "AcceptStart"),
			Element: BufferElement, Class: "Deposit", KeyParam: "caller", Chain: "produce", Stage: 1,
			CopyParams: map[string]string{"item": "v"}},
		{Match: core.Ref(BufferTask+".Get", "AcceptEnd"),
			Element: BufferElement, Class: "Fetch", KeyParam: "caller", Chain: "consume", Stage: 0,
			CopyParams: map[string]string{"item": "result"}},
		{Match: core.Ref("", "Return"), Where: core.NewParams(core.P("entry", core.Str("Get"))),
			Element: "%s", Class: "Consume", KeyParam: "@element", Chain: "consume", Stage: 1,
			CopyParams: map[string]string{"item": "result"}},
	}}
}
