package lint

import (
	"fmt"
	"io"
)

// The Go front-end codes. They live in this package — not in
// internal/gofront — because the GEM code namespace is a single
// append-only table shared by every tool (gemlint, gemgo, the SARIF
// rules block), and the registry below is its one source of truth.
const (
	// CodeChanNoPartner: a channel operation with no possible partner
	// anywhere in the extracted model — a receive on a channel nothing
	// sends on or closes, or a send no receive can drain (accounting for
	// buffering). The operation blocks forever.
	CodeChanNoPartner Code = "GEM013"
	// CodeLockInversion: two mutexes are acquired in opposite orders by
	// different goroutines — a cycle in the lock-ordering graph, so an
	// interleaving exists in which both goroutines block forever.
	CodeLockInversion Code = "GEM014"
	// CodeBlockForever: a goroutine that can block forever — a cycle in
	// the extracted wait-for graph (crossed channel rendezvous, a
	// WaitGroup wait no Done can satisfy), the static analogue of a
	// partial deadlock.
	CodeBlockForever Code = "GEM015"
	// CodeDoubleLock: a goroutine locks a non-reentrant mutex it already
	// holds; the second acquisition waits for a release that can only
	// happen after it — a guaranteed self-deadlock.
	CodeDoubleLock Code = "GEM016"
)

// The verification codes — produced by gemverify's SARIF output rather
// than a static analysis: each is a dynamic finding over an exhaustive
// exploration, not a lint of the spec text.
const (
	// CodeSatRefuted: a solution computation fails the sat check against
	// its problem specification — the verification matrix found a
	// counterexample computation, so the solution does not implement the
	// problem.
	CodeSatRefuted Code = "GEM017"
)

// The data-race codes — produced by the static race pass
// (internal/race) over gofront-extracted models: two operations that
// may happen in parallel (incomparable in the extracted partial order)
// and conflict on the same object.
const (
	// CodeDataRace: a write to a shared variable may happen in parallel
	// with another access to it, and no common lock (with at least one
	// side holding the write lock) separates them.
	CodeDataRace Code = "GEM018"
	// CodeCloseRace: a channel close may happen in parallel with a send
	// on the same channel — the send panics if the close wins the race.
	CodeCloseRace Code = "GEM019"
	// CodeAddWaitRace: a WaitGroup.Add may happen in parallel with a
	// Wait on the same WaitGroup — Wait can return before the work the
	// Add accounts for has been registered.
	CodeAddWaitRace Code = "GEM020"
)

// CodeInfo is one row of the shared code registry: a stable code, its
// one-line summary (also the SARIF rule description), and the severity
// its producer assigns.
type CodeInfo struct {
	Code     Code     `json:"code"`
	Summary  string   `json:"summary"`
	Severity Severity `json:"severity"`
}

// registry is the single shared table of every GEM diagnostic code.
// Append-only, like the codes themselves: gemlint, gemgo, and the SARIF
// writer all consume this table, so a code's summary and severity are
// stated exactly once.
var registry = []CodeInfo{
	{CodeDanglingElement, "reference to an undeclared element", SeverityError},
	{CodeDanglingClass, "reference to an undeclared event class", SeverityError},
	{CodeDanglingParam, "read of an undeclared event parameter", SeverityError},
	{CodePrereqCycle, "unsatisfiable prerequisite structure (cycle or no well-founded start)", SeverityError},
	{CodeAccessForbidden, "required enable edge forbidden by the group access relation", SeverityError},
	{CodeDeadDecl, "declaration never referenced", SeverityWarning},
	{CodeVacuous, "vacuously true formula", SeverityWarning},
	{CodeUnboundVar, "unbound event or thread variable", SeverityError},
	{CodeContradiction, "statically unsatisfiable restriction set (no legal computation exists)", SeverityError},
	{CodeDeadlock, "cyclic wait among prerequisites across thread chains", SeverityWarning},
	{CodeUnreachable, "event class no legal enable chain can produce", SeverityError},
	{CodeRedundant, "restriction subsumed by another restriction", SeverityWarning},
	{CodeChanNoPartner, "channel operation with no possible partner", SeverityError},
	{CodeLockInversion, "mutexes acquired in opposite orders by different goroutines", SeverityWarning},
	{CodeBlockForever, "goroutine that can block forever (static partial deadlock)", SeverityWarning},
	{CodeDoubleLock, "second acquisition of a non-reentrant mutex already held", SeverityError},
	{CodeSatRefuted, "solution computation refuted by its problem specification", SeverityError},
	{CodeDataRace, "conflicting shared-variable accesses with no ordering and no common lock", SeverityError},
	{CodeCloseRace, "channel close concurrent with a send on the same channel", SeverityError},
	{CodeAddWaitRace, "WaitGroup.Add concurrent with Wait on the same WaitGroup", SeverityWarning},
}

// Info returns the registry row for a code.
func Info(c Code) (CodeInfo, bool) {
	for _, ci := range registry {
		if ci.Code == c {
			return ci, true
		}
	}
	return CodeInfo{}, false
}

// PrintRegistry writes the code table in a fixed-width text layout — the
// output of the -codes flag both gemlint and gemgo expose.
func PrintRegistry(w io.Writer) {
	for _, ci := range registry {
		fmt.Fprintf(w, "%s  %-7s  %s\n", ci.Code, ci.Severity, ci.Summary)
	}
}
