// Package legal implements the GEM legality check (Section 3 of the
// paper): a computation C is legal with respect to a specification σ when
// it satisfies σ's implicit legality restrictions — every event occurs at
// a declared element, belongs to a declared event class, carries declared
// parameters; enable edges respect the group access and port rules; the
// temporal order is a strict partial order (guaranteed by construction of
// core.Computation); thread labels follow the declared thread paths — and
// every explicit restriction of σ.
package legal

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/thread"
)

// ViolationKind classifies legality violations.
type ViolationKind int

// The violation kinds.
const (
	UndeclaredElement ViolationKind = iota + 1
	UndeclaredClass
	UndeclaredParam
	IllegalEnable
	ThreadViolation
	RestrictionViolation
)

func (k ViolationKind) String() string {
	switch k {
	case UndeclaredElement:
		return "undeclared-element"
	case UndeclaredClass:
		return "undeclared-class"
	case UndeclaredParam:
		return "undeclared-parameter"
	case IllegalEnable:
		return "illegal-enable"
	case ThreadViolation:
		return "thread-violation"
	case RestrictionViolation:
		return "restriction-violation"
	default:
		return "unknown"
	}
}

// Violation describes one way a computation fails to be legal.
type Violation struct {
	Kind    ViolationKind
	Message string
	// Restriction names the failed restriction and Owner its declaring
	// element/group for RestrictionViolation.
	Restriction string
	Owner       string
	// Cx carries the failing witness of a RestrictionViolation, and is
	// never nil for that kind: a complete valid history sequence for a
	// temporal restriction, a single history otherwise. Every witness
	// falsifies the restriction (logic.Counterexample.Verify).
	Cx *logic.Counterexample
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s", v.Kind, v.Message)
	if v.Restriction != "" {
		s += fmt.Sprintf(" (restriction %s of %s)", v.Restriction, v.Owner)
	}
	return s
}

// Result is the outcome of a legality check.
type Result struct {
	Violations []Violation
}

// Legal reports whether no violations were found.
func (r Result) Legal() bool { return len(r.Violations) == 0 }

// Error returns nil when legal, or an error summarizing the violations.
func (r Result) Error() error {
	if r.Legal() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("legal: %d violation(s):\n  %s", len(r.Violations), strings.Join(msgs, "\n  "))
}

// Options configures the check.
type Options struct {
	Check logic.CheckOptions
	// SkipRestrictions limits the check to structural legality (event
	// declarations, enable edges, threads).
	SkipRestrictions bool
}

// Check verifies that the computation is legal with respect to the
// specification. Every explicit restriction is evaluated by logic.Holds
// in declaration order; all of them share the computation's memoized
// history lattice, which is enumerated at most once.
func Check(s *spec.Spec, c *core.Computation, opts Options) Result {
	var res Result
	add := func(v Violation) { res.Violations = append(res.Violations, v) }

	checkEvents(s, c, add)
	checkEnables(s, c, add)
	if len(s.Threads()) > 0 {
		if err := thread.Validate(c, s.Threads()...); err != nil {
			add(Violation{Kind: ThreadViolation, Message: err.Error()})
		}
	}
	if opts.SkipRestrictions {
		return res
	}
	// Cancellation stops the loop and leaves the remaining restrictions
	// unchecked — indistinguishable from "holds" in the result, so
	// callers that must tell the difference consult ctx.Err(), as with
	// every partial result here.
	done := logic.Done(opts.Check.Ctx)
	for _, r := range s.Restrictions() {
		if logic.Cancelled(done) {
			break
		}
		// Each restriction runs under its own span, so the trace and the
		// per-restriction stats table attribute each engine stage's time
		// to the restriction shape that incurred it. The name is only
		// built when the collector is on, keeping the disabled path
		// allocation-free.
		name := ""
		if obs.Enabled() {
			name = "restriction " + r.Owner + "/" + r.Name
		}
		inner := opts.Check
		ctx, sp := obs.StartSpan(inner.Ctx, name)
		inner.Ctx = ctx
		cx := logic.Holds(r.F, c, inner)
		sp.End()
		if cx != nil {
			add(Violation{
				Kind:        RestrictionViolation,
				Message:     cx.Error(),
				Restriction: r.Name,
				Owner:       r.Owner,
				Cx:          cx,
			})
		}
	}
	return res
}

func checkEvents(s *spec.Spec, c *core.Computation, add func(Violation)) {
	for i := 0; i < c.NumEvents(); i++ {
		e := c.Event(core.EventID(i))
		d, ok := s.Element(e.Element())
		if !ok {
			add(Violation{
				Kind:    UndeclaredElement,
				Message: fmt.Sprintf("event %s occurs at undeclared element %s", e.Name(), e.Element()),
			})
			continue
		}
		ec, ok := d.EventDecl(e.Class())
		if !ok {
			add(Violation{
				Kind:    UndeclaredClass,
				Message: fmt.Sprintf("event %s has undeclared class %s at element %s", e.Name(), e.Class(), e.Element()),
			})
			continue
		}
		params := e.Params()
		for i := 0; i < params.Len(); i++ {
			if p := params.At(i).Name; !ec.HasParam(p) {
				add(Violation{
					Kind:    UndeclaredParam,
					Message: fmt.Sprintf("event %s carries undeclared parameter %s", e.Name(), p),
				})
			}
		}
	}
}

func checkEnables(s *spec.Spec, c *core.Computation, add func(Violation)) {
	static, err := s.Universe()
	if err != nil {
		add(Violation{Kind: IllegalEnable, Message: "invalid group structure: " + err.Error()})
		return
	}
	dynamic := core.HasDynamicChanges(c)
	for i := 0; i < c.NumEvents(); i++ {
		e := c.Event(core.EventID(i))
		u := static
		if dynamic {
			// Dynamic group structure: the edge is judged by the group
			// structure in the source event's causal past (the paper's
			// footnote: structure changes are themselves events).
			u, err = core.UniverseAt(static, c, e.ID())
			if err != nil {
				add(Violation{Kind: IllegalEnable, Message: err.Error()})
				return
			}
		}
		for _, succ := range c.Enabled(e.ID()) {
			tgt := c.Event(succ)
			if !u.MayEnable(e.Element(), tgt.Element(), tgt.Class()) {
				add(Violation{
					Kind: IllegalEnable,
					Message: fmt.Sprintf("%s may not enable %s: no access from %s to %s",
						e.Name(), tgt.Name(), e.Element(), tgt.Element()),
				})
			}
		}
	}
}
