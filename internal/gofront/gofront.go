// Package gofront is the Go front end: a static-analysis pass that
// extracts GEM models from real Go source. It recognizes goroutine
// spawns, channel make/send/receive/close, sync.Mutex and sync.RWMutex
// lock–unlock pairs (reader and writer modes), sync.WaitGroup
// Add/Done/Wait, and shared-variable reads and writes (package-level
// variables and locals crossing a go boundary, each carrying the
// lockset held at the access), and compiles them into GEM computations
// — each goroutine an element, each operation an event, control flow
// and channel/lock pairing the enable edges — so the legality checker,
// the deep analyzer, and the lattice engine run on real code unchanged.
// On top of the extracted wait-for structure it reports four
// Go-specific diagnostics:
//
//	GEM013  channel operation with no possible partner
//	GEM014  lock-ordering inversion between mutexes
//	GEM015  goroutine that can block forever (circular or unsatisfiable wait)
//	GEM016  double lock of a non-reentrant mutex
//
// The companion race pass (internal/race) consumes the same models and
// adds GEM018–GEM020 from the may-happen-in-parallel relation of the
// extracted partial order.
//
// Imports are read from the export data the go command keeps in its
// build cache (see LoadDir), not type-checked from source in every
// process.
//
// The analysis is intentionally flow-naive — every statement is assumed
// to execute once, in source order — which makes it fast, deterministic,
// and free of false GEM013s on the code shapes it models (straight-line
// goroutine pipelines); anything it cannot resolve degrades to "no
// event", never to a wrong one.
package gofront

import (
	"gem/internal/lint"
	"gem/internal/obs"
)

// Result is the analysis outcome for one package.
type Result struct {
	Pkg    *Package
	Models []*Model
	// Diags are all models' diagnostics in the canonical order (file,
	// position, code, subject).
	Diags []lint.FileDiagnostic
}

// Analyze extracts and diagnoses every root function of a loaded package.
func Analyze(pkg *Package) *Result {
	_, sp := obs.StartSpan(nil, "gofront.extract")
	funcs := packageFuncs(pkg)
	res := &Result{Pkg: pkg}
	var raws []*rawModel
	for _, fd := range roots(pkg, funcs) {
		raw := extractFunc(pkg, funcs, fd)
		if len(raw.ops) == 0 {
			continue
		}
		raws = append(raws, raw)
	}
	sp.End()

	_, sp = obs.StartSpan(nil, "gofront.diagnose")
	defer sp.End()
	for _, raw := range raws {
		m, err := buildModel(pkg, raw)
		if err != nil {
			// Cannot happen by construction; skip rather than report a
			// bogus finding.
			continue
		}
		obs.Count("gofront.models", 1)
		res.Models = append(res.Models, m)
		res.Diags = append(res.Diags, m.Diags...)
	}
	obs.Count("gofront.diags", int64(len(res.Diags)))
	lint.SortFileDiagnostics(res.Diags)
	return res
}

// AnalyzeDir loads one package directory and analyzes it.
func AnalyzeDir(dir string) (*Result, error) {
	pkg, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return Analyze(pkg), nil
}

// AnalyzeSource analyzes a single in-memory file as its own package.
func AnalyzeSource(filename, src string) (*Result, error) {
	pkg, err := LoadSource(filename, src)
	if err != nil {
		return nil, err
	}
	return Analyze(pkg), nil
}
