// Package lint implements gemlint, the static well-formedness and
// consistency analyzer for GEM specifications. It checks properties of a
// specification σ that the paper (Sections 3, 4, 6 and 8.2) fixes
// statically — declaration consistency, satisfiability of the
// prerequisite structure, access legality of required enable edges — and
// reports them as structured diagnostics with stable codes, without
// enumerating a single history. The analysis only reports: gemlint, gemc
// and gemcheck's pre-flight lint run it, and no verdict of the sat check
// depends on it.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

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

	// The deep-analysis codes below are produced by internal/analyze
	// (gemlint -deep), which reasons about *interactions between*
	// restrictions over the abstract enable graph, rather than about one
	// restriction in isolation.

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
	// Constraints are the enable-edge constraints extracted from the
	// restriction formulae (the prerequisite structure), including the
	// ones the analyses proved unsatisfiable.
	Constraints []EnableConstraint
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

// Analyze runs every analysis over the specification IR. Diagnostics
// carry no positions; use AnalyzeSource for position-annotated output.
func Analyze(s *spec.Spec) *Result { return analyze(s, nil) }

// AnalyzeSource parses GEM source and analyzes it, attaching source
// positions to the diagnostics. A parse error is returned as-is (lint
// requires a syntactically valid specification).
func AnalyzeSource(src string) (*Result, error) {
	s, marks, err := gemlang.ParseWithPositions(src)
	if err != nil {
		return nil, err
	}
	return analyze(s, marks), nil
}

// AnalyzeMarked analyzes an already-parsed specification, attaching
// source positions from the given map (which may be nil). It is the
// entry point for downstream analyses — internal/analyze — that need
// the extracted constraints and positioned diagnostics for an IR they
// already hold.
func AnalyzeMarked(s *spec.Spec, marks *gemlang.SourceMap) *Result {
	return analyze(s, marks)
}

// PosOf resolves the source position recorded for a named construct of
// the given kind ("element", "group", "thread" or "restriction").
// Returns the zero Pos when the map is nil or has no entry. Exposed so
// downstream analyzers position their diagnostics identically to lint.
func PosOf(marks *gemlang.SourceMap, kind, name string) Pos {
	a := analysis{marks: marks}
	switch kind {
	case "element":
		return a.posOf(inElement, name)
	case "group":
		return a.posOf(inGroup, name)
	case "thread":
		return a.posOf(inThread, name)
	case "restriction":
		return a.posOf(inRestriction, name)
	}
	return Pos{}
}

// SortDiagnostics orders diagnostics by position (unknown positions
// last), then code, then subject — the canonical stable order every
// producer of diagnostics uses.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := ds[i].Pos, ds[j].Pos
		if pi.IsZero() != pj.IsZero() {
			return !pi.IsZero()
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Col != pj.Col {
			return pi.Col < pj.Col
		}
		if ds[i].Code != ds[j].Code {
			return ds[i].Code < ds[j].Code
		}
		return ds[i].Subject < ds[j].Subject
	})
}

func analyze(s *spec.Spec, marks *gemlang.SourceMap) *Result {
	_, sp := obs.StartSpan(nil, "lint.analyze")
	defer sp.End()
	a := &analysis{s: s, marks: marks, res: &Result{}, seen: make(map[string]bool)}
	a.universe, _ = s.Universe()
	a.checkStructure()
	a.checkRestrictions()
	a.checkConstraints()
	a.checkDead()
	a.sortDiags()
	return a.res
}

// sortDiags orders diagnostics canonically (see SortDiagnostics).
func (a *analysis) sortDiags() { SortDiagnostics(a.res.Diags) }

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
