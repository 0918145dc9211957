// Package lint implements gemlint, the static analyzer for GEM
// specifications. It checks properties of a specification σ that the
// paper (Sections 3, 4, 6 and 8.2) fixes statically — declaration
// consistency, satisfiability of the prerequisite structure, access
// legality of required enable edges — and reports them as structured
// diagnostics with stable codes, without enumerating a single history.
//
// The shallow checks (GEM001–GEM008) judge each restriction in
// isolation. The deep ones (GEM009–GEM012, gemlint -deep) judge their
// interactions over an abstract enable graph of the declared (element,
// event-class) pairs and a wait-for graph over the Section 8.3 thread
// chains:
//
//	GEM009  contradictory restriction set — the spec admits no legal
//	        computation at all, so every verification against it is
//	        vacuous (error);
//	GEM010  static deadlock — a circular mandatory wait among
//	        prerequisites threaded across chains (warning);
//	GEM011  unreachable event — a class no legal enable chain can
//	        produce, transitively, under the access relation (error);
//	GEM012  subsumed/redundant restriction (warning).
//
// The analysis only reports: gemlint, gemc and gemcheck's pre-flight
// lint run it, and no verdict of the sat check depends on it.
package lint

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/obs"
	"gem/internal/spec"
)

// Code is a stable diagnostic code. Codes are append-only: a code keeps
// its meaning forever so tooling may filter on it.
type Code string

// The diagnostic codes.
const (
	// CodeDanglingElement: a restriction, thread path, group member, or
	// port references an element that is not declared.
	CodeDanglingElement Code = "GEM001"
	// CodeDanglingClass: a reference names an event class no element
	// declares (or the referenced element does not declare it).
	CodeDanglingClass Code = "GEM002"
	// CodeDanglingParam: a formula reads an event parameter the event's
	// class does not declare.
	CodeDanglingParam Code = "GEM003"
	// CodePrereqCycle: the prerequisite graph induced by the Section 8.2
	// abbreviations is unsatisfiable — some event class can never have a
	// legally enabled event (a cycle, or a chain with no well-founded
	// start).
	CodePrereqCycle Code = "GEM004"
	// CodeAccessForbidden: a restriction requires an enable edge that the
	// Section 4 group/port access relation forbids, so every computation
	// satisfying the restriction contains an IllegalEnable.
	CodeAccessForbidden Code = "GEM005"
	// CodeDeadDecl: an event class (or an element) is declared but never
	// referenced by any restriction, port, or thread path.
	CodeDeadDecl Code = "GEM006"
	// CodeVacuous: a formula is vacuously true — an implication whose
	// antecedent can never hold, or a thread quantifier over an
	// undeclared thread type.
	CodeVacuous Code = "GEM007"
	// CodeUnboundVar: a formula uses an event or thread variable that no
	// enclosing quantifier binds (dynamic evaluation would panic).
	CodeUnboundVar Code = "GEM008"

	// The deep-analysis codes below (gemlint -deep) reason about
	// *interactions between* restrictions over the abstract enable graph,
	// rather than about one restriction in isolation.

	// CodeContradiction: the restriction set is statically unsatisfiable —
	// one restriction demands an event of a class the other restrictions
	// exclude from every legal computation, so no computation satisfies
	// the specification and all verification against it is vacuous.
	CodeContradiction Code = "GEM009"
	// CodeDeadlock: a cyclic wait among prerequisites/JOINs across thread
	// chains — following each class's required enabler and each thread
	// path's stage order leads back to the starting class.
	CodeDeadlock Code = "GEM010"
	// CodeUnreachable: an event class no legal enable chain can reach:
	// its required enablers are themselves unproducible (transitively, via
	// the access relation), even though each constraint looks fine in
	// isolation.
	CodeUnreachable Code = "GEM011"
	// CodeRedundant: a restriction that is subsumed by another — a
	// structurally identical formula, or a prerequisite constraint
	// re-stating one another restriction already imposes.
	CodeRedundant Code = "GEM012"
)

// Severity ranks diagnostics.
type Severity int

// The severities, in increasing order.
const (
	SeverityWarning Severity = iota + 1
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Pos is a 1-based source position; the zero Pos means "unknown"
// (diagnostics from a programmatically built Spec have no positions).
type Pos struct {
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
}

// IsZero reports whether the position is unknown.
func (p Pos) IsZero() bool { return p.Line == 0 }

// Diagnostic is one lint finding.
type Diagnostic struct {
	Code     Code     `json:"code"`
	Severity Severity `json:"severity"`
	// Subject names the offending construct, e.g. `restriction "r" of
	// buf` or `element db.data`.
	Subject string `json:"subject"`
	Message string `json:"message"`
	Pos     Pos    `json:"pos,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s %s: %s: %s", d.Code, d.Severity, d.Subject, d.Message)
	if !d.Pos.IsZero() {
		s = fmt.Sprintf("%d:%d: %s", d.Pos.Line, d.Pos.Col, s)
	}
	return s
}

// Result is the outcome of analyzing one specification.
type Result struct {
	Diags []Diagnostic
}

// Errors returns the error-severity diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// Analyze runs the shallow analyses over the specification IR, and the
// deep ones too when deep is set. Diagnostics carry no positions; use
// AnalyzeSource for position-annotated output.
func Analyze(s *spec.Spec, deep bool) *Result { return analyze(s, nil, deep) }

// AnalyzeSource parses GEM source and analyzes it as Analyze does,
// attaching source positions to the diagnostics. A parse error is
// returned as-is (lint requires a syntactically valid specification).
func AnalyzeSource(src string, deep bool) (*Result, error) {
	s, marks, err := gemlang.ParseWithPositions(src)
	if err != nil {
		return nil, err
	}
	return analyze(s, marks, deep), nil
}

// sortDiagnostics orders diagnostics canonically (see
// compareDiagnostics). The sort is stable, so findings with equal keys
// keep the order the passes reported them in.
func sortDiagnostics(ds []Diagnostic) { slices.SortStableFunc(ds, compareDiagnostics) }

// compareDiagnostics is the canonical order every producer of
// diagnostics uses: by position (unknown positions last), then code,
// then subject.
func compareDiagnostics(a, b Diagnostic) int {
	if a.Pos.IsZero() != b.Pos.IsZero() {
		if a.Pos.IsZero() {
			return 1
		}
		return -1
	}
	return cmp.Or(
		cmp.Compare(a.Pos.Line, b.Pos.Line),
		cmp.Compare(a.Pos.Col, b.Pos.Col),
		strings.Compare(string(a.Code), string(b.Code)),
		strings.Compare(a.Subject, b.Subject))
}

func analyze(s *spec.Spec, marks *gemlang.SourceMap, deep bool) *Result {
	_, sp := obs.StartSpan(nil, "lint.analyze")
	a := &analysis{s: s, marks: marks, res: &Result{}, seen: make(map[string]bool)}
	a.universe, _ = s.Universe()
	_, a.dynamic = s.Element(core.AdminElement)
	a.checkStructure()
	a.checkRestrictions()
	a.checkConstraints()
	a.checkDead()
	sp.End()
	if deep {
		_, sp := obs.StartSpan(nil, "analyze.deep")
		g := a.buildPairGraph()
		a.checkUnreachable(g)
		a.checkContradiction(g)
		a.checkDeadlock(g)
		a.checkRedundant()
		sp.End()
	}
	sortDiagnostics(a.res.Diags)
	return a.res
}

// Print writes the diagnostics in the canonical one-line-per-finding
// text format, prefixing each line with the file name when non-empty.
func Print(w io.Writer, file string, diags []Diagnostic) {
	for _, d := range diags {
		if file != "" {
			fmt.Fprintf(w, "%s:%s\n", file, d)
		} else {
			fmt.Fprintln(w, d.String())
		}
	}
}
