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
	// Cx carries the failing witness for RestrictionViolation: a complete
	// valid history sequence for a temporal restriction, a single history
	// otherwise. Every witness falsifies the restriction
	// (logic.Counterexample.Verify).
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
	// Prelint runs the gemlint static analyzer over the specification (a
	// memoized, computation-independent pass) and short-circuits the
	// restrictions it proved statically unsatisfiable whenever the
	// computation activates them, skipping their history enumeration.
	// The verdict and the set of failing restrictions are exactly the
	// dynamic check's; only the violation messages differ.
	Prelint bool
	// FastPath consults the deep analyzer's per-restriction emptiness
	// guards (analyze.ForSpec, memoized): a restriction whose guard holds
	// on the computation — the classes and thread types that could
	// falsify it are absent — is statically satisfied, so its history
	// enumeration is skipped with the verdict preserved exactly. The dual
	// of Prelint: Prelint short-circuits restrictions proven to fail,
	// FastPath ones proven to hold.
	FastPath bool
}

// Check verifies that the computation is legal with respect to the
// specification.
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
	rs := s.Restrictions()
	var pre []*Violation
	if opts.Prelint {
		pre = prelintViolations(s, c, rs)
	}
	var hold []bool
	if opts.FastPath {
		hold = fastPathHolds(s, c, rs)
		if obs.Enabled() {
			for _, h := range hold {
				if h {
					obs.Count("fastpath.hits", 1)
				}
			}
		}
	}
	for i, cx := range restrictionCounterexamples(s, c, opts, pre, hold) {
		if pre != nil && pre[i] != nil {
			obs.Count("prelint.shortcircuit", 1)
			add(*pre[i])
			continue
		}
		if cx != nil {
			add(Violation{
				Kind:        RestrictionViolation,
				Message:     cx.Error(),
				Restriction: rs[i].Name,
				Owner:       rs[i].Owner,
				Cx:          cx,
			})
		}
	}
	return res
}

// restrictionCounterexamples checks every explicit restriction against
// the computation in declaration order. All restrictions share the
// computation's memoized history lattice, which is enumerated at most
// once. Restrictions with a non-nil pre entry were already refuted by
// the lint pre-pass and are not evaluated; restrictions with a true
// hold entry were proved to hold by the
// fast-path guard and are not evaluated either (their result stays nil,
// exactly the verdict the enumeration would reach).
func restrictionCounterexamples(s *spec.Spec, c *core.Computation, opts Options, pre []*Violation, hold []bool) []*logic.Counterexample {
	rs := s.Restrictions()
	cxs := make([]*logic.Counterexample, len(rs))
	skip := func(i int) bool { return pre != nil && pre[i] != nil }
	holds := func(i int) bool { return hold != nil && hold[i] }
	// eval runs one restriction under its own span, so the trace and the
	// per-restriction stats table attribute each engine stage's time to
	// the restriction shape that incurred it. The name is only built when
	// the collector is on, keeping the disabled path allocation-free.
	eval := func(i int, inner logic.CheckOptions) *logic.Counterexample {
		name := ""
		if obs.Enabled() {
			name = "restriction " + rs[i].Owner + "/" + rs[i].Name
		}
		ctx, sp := obs.StartSpan(inner.Ctx, name)
		inner.Ctx = ctx
		cx := logic.Holds(rs[i].F, c, inner)
		sp.End()
		return cx
	}
	// Cancellation leaves the remaining entries nil — indistinguishable
	// from "holds" in the returned slice, so callers that must tell the
	// difference consult ctx.Err(), as with every partial result here.
	done := logic.Done(opts.Check.Ctx)
	for i := range rs {
		if logic.Cancelled(done) {
			break
		}
		if !skip(i) && !holds(i) {
			cxs[i] = eval(i, opts.Check)
		}
	}
	return cxs
}

func checkEvents(s *spec.Spec, c *core.Computation, add func(Violation)) {
	for _, e := range c.Events() {
		d, ok := s.Element(e.Element)
		if !ok {
			add(Violation{
				Kind:    UndeclaredElement,
				Message: fmt.Sprintf("event %s occurs at undeclared element %s", e.Name(), e.Element),
			})
			continue
		}
		ec, ok := d.EventDecl(e.Class)
		if !ok {
			add(Violation{
				Kind:    UndeclaredClass,
				Message: fmt.Sprintf("event %s has undeclared class %s at element %s", e.Name(), e.Class, e.Element),
			})
			continue
		}
		for i := 0; i < e.Params.Len(); i++ {
			if p := e.Params.At(i).Name; !ec.HasParam(p) {
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
	for _, e := range c.Events() {
		u := static
		if dynamic {
			// Dynamic group structure: the edge is judged by the group
			// structure in the source event's causal past (the paper's
			// footnote: structure changes are themselves events).
			u, err = core.UniverseAt(static, c, e.ID)
			if err != nil {
				add(Violation{Kind: IllegalEnable, Message: err.Error()})
				return
			}
		}
		for _, succ := range c.Enabled(e.ID) {
			tgt := c.Event(succ)
			if !u.MayEnable(e.Element, tgt.Element, tgt.Class) {
				add(Violation{
					Kind: IllegalEnable,
					Message: fmt.Sprintf("%s may not enable %s: no access from %s to %s",
						e.Name(), tgt.Name(), e.Element, tgt.Element),
				})
			}
		}
	}
}
