package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"gem/internal/check"
	"gem/internal/core"
	"gem/internal/gofront"
	"gem/internal/history"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/mutate"
	"gem/internal/obs"
	"gem/internal/problems/rw"
	"gem/internal/race"
	"gem/internal/spec"
	"gem/internal/store"
	"gem/internal/verify"
)

// childEnv carries a request to a child process: the benchmark binary
// re-executes itself with it set, and the child serves that request
// instead of driving a workload.
const childEnv = "GEMBENCH_CHILD"

// The request shapes, as their CLIs run them.
const (
	campaignMutants = 2000 // gemmut -n 2000
	campaignWorkers = 2    // gemmut -j 2
)

type childRequest struct {
	Op      string   `json:"op"` // "matrix", "campaign", "gemgo" or "sat"
	Store   string   `json:"store,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Dirs    []string `json:"dirs,omitempty"`
	Trace   bool     `json:"trace,omitempty"`
	MaxRuns int      `json:"max_runs,omitempty"`
}

// verdict is what a request decided, compared against the known answers.
type verdict struct {
	Cells       []cellVerdict `json:"cells,omitempty"`
	Refutations []refVerdict  `json:"refutations,omitempty"`
	Findings    int           `json:"findings"`
	Unique      int           `json:"unique,omitempty"`
	Packages    []pkgVerdict  `json:"packages,omitempty"`
	Sat         bool          `json:"sat,omitempty"`
	Refuted     []string      `json:"refuted,omitempty"`
}

type cellVerdict struct {
	Problem  string `json:"problem"`
	Language string `json:"language"`
	Runs     int    `json:"runs"`
	Verified bool   `json:"verified"`
	Err      string `json:"err,omitempty"`
}

type refVerdict struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
	Of    int    `json:"of"`
	Err   string `json:"err,omitempty"`
}

type pkgVerdict struct {
	Dir   string   `json:"dir"`
	Codes []string `json:"codes"`
}

// childReport is a one-request child's output on stdout.
type childReport struct {
	Main    int64              `json:"main"`  // wall clock at main entry, unix ns
	Alloc   uint64             `json:"alloc"` // runtime TotalAlloc at exit, bytes
	Verdict verdict            `json:"verdict"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Spans   []traceSpan        `json:"spans,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// childMain serves the request in raw and returns the exit code.
func childMain(raw string, mainStart time.Time) int {
	var req childRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		fmt.Fprintln(os.Stderr, "gembench child:", err)
		return 2
	}
	if req.Op == "sat" {
		if err := satServe(req, mainStart, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gembench child:", err)
			return 1
		}
		return 0
	}
	rep := childReport{Main: mainStart.UnixNano()}
	var t *tracer
	if req.Trace {
		t = newTracer()
		obs.Enable()
	}
	var err error
	switch req.Op {
	case "matrix":
		err = runMatrix(req, t, &rep.Verdict)
	case "campaign":
		err = runCampaign(req, t, &rep.Verdict)
	case "gemgo":
		err = runGemgo(req, t, &rep.Verdict)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Alloc = ms.TotalAlloc
	if t != nil {
		t.foldObs(obs.Snapshot())
		t.set("lattice.builds", float64(history.LatticeBuilds()))
		t.set("gc.cycles", float64(ms.NumGC))
		t.set("gc.pause_ms", float64(ms.PauseTotalNs)/1e6)
		rep.Layers, rep.Spans = t.layers, t.spans
	}
	if err != nil {
		rep.Err = err.Error()
	}
	if werr := json.NewEncoder(os.Stdout).Encode(rep); werr != nil || err != nil {
		return 1
	}
	return 0
}

// runMatrix is gemverify -j1, with -cache rw -cache-dir req.Store or,
// without a store, -cache off: every cell of the Section 11 matrix
// through Scenario.Run, then the two negative controls the way
// check.RunRefutations checks them.
func runMatrix(req childRequest, t *tracer, v *verdict) error {
	mode := "off"
	if req.Store != "" {
		mode = "rw"
	}
	var st *store.Store
	var err error
	t.span("store.open", func() { st, err = store.OpenFromFlags(mode, req.Store, os.Stderr) })
	if err != nil {
		return err
	}
	opts := check.Options{Parallelism: 1}
	if st != nil {
		opts.Cache = st
	} else if mode == "rw" {
		return fmt.Errorf("store %s is unusable", req.Store)
	}
	var buffers float64
	for _, s := range check.Matrix() {
		name := "cell." + s.Problem + "/" + string(s.Language)
		if t != nil {
			s = t.scenario(s)
		}
		var cell check.Cell
		t.span(name, func() { cell = s.Run(opts) })
		cv := cellVerdict{Problem: s.Problem, Language: string(s.Language), Runs: cell.Runs, Verified: cell.Verified}
		if cell.Err != nil {
			cv.Err = cell.Err.Error()
		}
		v.Cells = append(v.Cells, cv)
		if t != nil && s.Problem != "readers-writers" {
			buffers += t.total(name)
		}
	}
	comps := 0
	for _, r := range check.Refutations() {
		rv := refVerdict{Name: r.Name, Index: -1}
		t.span("refute", func() {
			var problem *spec.Spec
			var cs []*core.Computation
			var corr verify.Correspondence
			var berr error
			t.span("refute.build", func() { problem, cs, corr, berr = r.Build() })
			if berr != nil {
				rv.Err = berr.Error()
				return
			}
			rv.Of = len(cs)
			t.span("refute.check", func() {
				rv.Index, _ = verify.CheckAll(problem, cs, corr, logic.CheckOptions{Parallelism: 1, Cache: opts.Cache})
			})
		})
		comps += rv.Of
		v.Refutations = append(v.Refutations, rv)
	}
	if t == nil {
		return nil
	}
	explore := 0.0
	for _, lang := range check.Languages() {
		ms := t.self("explore." + string(lang))
		t.set("explore."+string(lang)+"_ms", ms)
		explore += ms
	}
	cells := buffers
	for _, lang := range check.Languages() {
		ms := t.total("cell.readers-writers/" + string(lang))
		t.set("cell.rw-"+string(lang)+"_ms", ms)
		cells += ms
	}
	t.set("explore.ms", explore)
	t.set("cell.buffers_ms", buffers)
	t.set("check.setup_ms", t.total("check.setup"))
	t.set("check.sat_ms", cells-t.total("check.setup")-explore)
	t.set("check.computations", t.layers["explore.runs"]+float64(comps))
	t.set("refute.ms", t.total("refute"))
	t.set("store.open_ms", t.total("store.open"))
	stats := st.Stats()
	t.set("store.hits", float64(stats.Hits))
	t.set("store.misses", float64(stats.Misses))
	t.set("store.writes", float64(stats.Writes))
	if n := stats.Hits + stats.Misses; n > 0 {
		t.set("store.hit_ratio", float64(stats.Hits)/float64(n))
	}
	return nil
}

// runCampaign is gemmut -n 2000 -seed S -j 2 -cache off.
func runCampaign(req childRequest, t *tracer, v *verdict) error {
	var rep *mutate.Report
	var err error
	cpu0, start := processCPU(), time.Now()
	t.span("mutate.run", func() {
		rep, err = mutate.Run(mutate.Config{N: campaignMutants, Seed: req.Seed, Parallelism: campaignWorkers})
	})
	cpu, wall := processCPU()-cpu0, time.Since(start)
	if err != nil {
		return err
	}
	rep.Render(io.Discard)
	v.Findings, v.Unique = len(rep.Findings), rep.Unique
	if t == nil {
		return nil
	}
	generated := 0
	for _, n := range rep.ByOp {
		generated += n
	}
	t.set("mutate.run_ms", t.total("mutate.run"))
	t.set("mutate.generated", float64(generated))
	t.set("mutate.rejected", float64(rep.Rejected))
	t.set("mutate.deduped", float64(rep.Deduped))
	t.set("mutate.unique", float64(rep.Unique))
	t.set("mutate.unique_ratio", float64(rep.Unique)/float64(rep.N))
	t.set("mutate.illegal", float64(rep.Illegal))
	t.set("fanout.cpu_util", cpu.Seconds()/(wall.Seconds()*campaignWorkers))
	return nil
}

// runGemgo is gemgo -j1 over the given package directories, kept in the
// given order: the first package to import the standard library pays for
// type-checking it from source.
func runGemgo(req childRequest, t *tracer, v *verdict) error {
	var models, diags, races int
	for _, pattern := range req.Dirs {
		var dirs []string
		var err error
		t.span("gofront.expand", func() { dirs, err = gofront.ExpandPatterns([]string{pattern}) })
		if err != nil {
			return err
		}
		for _, dir := range dirs {
			var pkg *gofront.Package
			t.span("gofront.load", func() { pkg, err = gofront.LoadDir(dir) })
			if err != nil {
				return fmt.Errorf("%s: %w", dir, err)
			}
			var res *gofront.Result
			t.span("gofront.analyze", func() { res = gofront.Analyze(pkg) })
			var found []lint.FileDiagnostic
			t.span("race.check", func() {
				for _, m := range res.Models {
					found = append(found, race.Check(m)...)
				}
			})
			models += len(res.Models)
			diags += len(res.Diags)
			races += len(found)
			all := append(append([]lint.FileDiagnostic(nil), res.Diags...), found...)
			lint.SortFileDiagnostics(all)
			pv := pkgVerdict{Dir: dir, Codes: []string{}}
			for _, d := range all {
				pv.Codes = append(pv.Codes, string(d.Code))
			}
			v.Packages = append(v.Packages, pv)
		}
	}
	if t == nil {
		return nil
	}
	t.set("gofront.load_ms", t.total("gofront.load"))
	t.set("gofront.load_first_ms", t.first("gofront.load"))
	t.set("gofront.analyze_ms", t.total("gofront.analyze"))
	t.set("race.check_ms", t.total("race.check"))
	t.set("gofront.packages", float64(len(v.Packages)))
	t.set("gofront.models", float64(models))
	t.set("gofront.diags", float64(diags))
	t.set("race.diags", float64(races))
	return nil
}

// namedFormula is a restriction checked outside any spec.
type namedFormula struct {
	name string
	f    logic.Formula
}

// e12Formulas are the three deliberately failing temporal properties of
// experiment E12 over the readers-writers problem: a leads-to whose
// violation sits deep in sequence order, an ∃ with a temporal body, and
// a disjunction of two temporal formulas.
func e12Formulas() []namedFormula {
	writeDone := logic.Exists{Var: "fw", Ref: core.Ref("", "FinishWrite"), Body: logic.Occurred{Var: "fw"}}
	readsFinishFirst := logic.Box{F: logic.Implies{
		If: logic.And{
			logic.Exists{Var: "rq", Ref: core.Ref("db.control", "ReqWrite"), Body: logic.Occurred{Var: "rq"}},
			logic.Not{F: writeDone},
		},
		Then: logic.Diamond{F: logic.And{
			logic.Exists{Var: "fr", Ref: core.Ref("", "FinishRead"), Body: logic.New{Var: "fr"}},
			logic.Not{F: writeDone},
		}},
	}}
	existsBox := logic.Exists{Var: "sw", Ref: core.Ref("db.control", "StartWrite"),
		Body: logic.Box{F: logic.Occurred{Var: "sw"}}}
	temporalOr := logic.Or{
		logic.Box{F: logic.Exists{Var: "g", Ref: core.Ref("db.data", "Getval"), Body: logic.Occurred{Var: "g"}}},
		logic.Box{F: logic.Exists{Var: "a", Ref: core.Ref("db.data", "Assign"), Body: logic.Occurred{Var: "a"}}},
	}
	return []namedFormula{
		{"reads-finish-first", readsFinishFirst},
		{"exists-box", existsBox},
		{"temporal-or", temporalOr},
	}
}

// satCommand is one request line the harness sends a sat-rw3 child.
type satCommand struct {
	I     int  `json:"i"`
	Trace bool `json:"trace,omitempty"`
}

// satReply is one line a sat-rw3 child answers with. The first, sent
// once set-up is done, carries only Main and Runs.
type satReply struct {
	Main    int64              `json:"main,omitempty"`
	Runs    int                `json:"runs,omitempty"`
	Lat     int64              `json:"lat,omitempty"`    // call → return, ns
	CPU     int64              `json:"cpu,omitempty"`    // process user+sys during the call, ns
	Alloc   uint64             `json:"alloc,omitempty"`  // bytes allocated during the call
	RSSKB   int64              `json:"rss_kb,omitempty"` // process peak RSS so far
	Verdict *verdict           `json:"verdict,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Spans   []traceSpan        `json:"spans,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// satServe is the long-lived sat-rw3 child: it explores the readers=3
// readers-writers monitor once, then answers requests from in until in
// closes. Request i checks computation perm(seed)[i mod runs], so
// set-up's warm-up request, i = -1, checks the last one.
func satServe(req childRequest, mainStart time.Time, in io.Reader, out io.Writer) error {
	readers := []string{"r1", "r2", "r3", "w1"}
	problem, err := rw.ProblemSpec(readers, true)
	if err != nil {
		return err
	}
	corr := rw.MonitorCorrespondence()
	prog := rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 3, Writers: 1})
	runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: req.MaxRuns})
	if err != nil {
		return err
	}
	comps := make([]*core.Computation, len(runs))
	for i, r := range runs {
		if r.Deadlock {
			return fmt.Errorf("run %d deadlocked", i)
		}
		comps[i] = r.Comp
	}
	perm := rand.New(rand.NewSource(req.Seed)).Perm(len(comps))
	formulas := e12Formulas()

	enc := json.NewEncoder(out)
	if err := enc.Encode(satReply{Main: mainStart.UnixNano(), Runs: len(comps)}); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var cmd satCommand
		if err := json.Unmarshal(sc.Bytes(), &cmd); err != nil {
			return err
		}
		n := len(comps)
		reply := satRequest(problem, corr, comps[perm[(cmd.I%n+n)%n]], formulas, cmd.Trace)
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

// satRequest is one sat-rw3 request: the sat check of one computation
// against the readers=3 problem spec, then the E12 formulas on its
// projection. Only the two calls are timed; the witnesses are verified
// afterwards.
func satRequest(problem *spec.Spec, corr verify.Correspondence, c *core.Computation, formulas []namedFormula, traced bool) satReply {
	var t *tracer
	var m0 runtime.MemStats
	var builds0 int64
	if traced {
		t = newTracer()
		runtime.ReadMemStats(&m0)
		builds0 = history.LatticeBuilds()
		obs.Enable()
	}
	cxs := make([]*logic.Counterexample, len(formulas))
	var res verify.Result
	cpu0, alloc0 := processCPU(), allocated()
	start := time.Now()
	t.span("verify.check", func() { res = verify.Check(problem, c, corr, logic.CheckOptions{}) })
	if res.Projection != nil {
		t.span("refute.holds", func() {
			for k, nf := range formulas {
				cxs[k] = logic.Holds(nf.f, res.Projection.Comp, logic.CheckOptions{})
			}
		})
	}
	lat := time.Since(start)
	alloc := allocated() - alloc0
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	reply := satReply{
		Lat:     lat.Nanoseconds(),
		CPU:     (cpuOf(&ru) - cpu0).Nanoseconds(),
		Alloc:   alloc,
		RSSKB:   ru.Maxrss,
		Verdict: &verdict{Sat: res.Sat()},
	}
	if t != nil {
		obs.Disable()
		t.foldObs(obs.Snapshot())
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		t.set("verify.check_ms", t.total("verify.check"))
		t.set("refute.holds_ms", t.total("refute.holds"))
		t.set("lattice.builds", float64(history.LatticeBuilds()-builds0))
		t.set("gc.cycles", float64(m1.NumGC-m0.NumGC))
		t.set("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		reply.Layers, reply.Spans = t.layers, t.spans
	}
	for k, cx := range cxs {
		if cx == nil {
			continue
		}
		if err := cx.Verify(); err != nil {
			reply.Err = fmt.Sprintf("%s: witness does not verify: %v", formulas[k].name, err)
			continue
		}
		reply.Verdict.Refuted = append(reply.Verdict.Refuted, formulas[k].name)
	}
	return reply
}

func cpuOf(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated is the heap memory this process has allocated so far, in
// bytes; unlike runtime.ReadMemStats it does not stop the world.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU is this process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return cpuOf(&ru)
}
