// Benchmark harness: one benchmark per experiment of DESIGN.md's
// experiment index (E1–E10). The paper (PODC 1983) contains no
// quantitative tables; its artifacts are worked enumerations and verified
// case studies, so each benchmark regenerates the corresponding artifact
// and reports its cost. EXPERIMENTS.md records the qualitative
// paper-vs-measured comparison.
package gem

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"gem/internal/ada"
	"gem/internal/check"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/gofront"
	"gem/internal/history"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/mutate"
	"gem/internal/order"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/dbupdate"
	"gem/internal/problems/life"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
	"gem/internal/race"
	"gem/internal/store"
	"gem/internal/thread"
	"gem/internal/verify"
)

// BenchmarkE1GroupAccess regenerates the Section 4 allowed-enable table:
// the 6-element, 4-group structure and its full access relation.
func BenchmarkE1GroupAccess(b *testing.B) {
	elems := []string{"EL1", "EL2", "EL3", "EL4", "EL5", "EL6"}
	want := map[string]int{"EL1": 2, "EL2": 3, "EL3": 4, "EL4": 4, "EL5": 3, "EL6": 1}
	for i := 0; i < b.N; i++ {
		u := core.NewUniverse()
		for _, e := range elems {
			u.AddElement(e)
		}
		u.AddGroup("G1", "EL2", "EL3")
		u.AddGroup("G2", "EL4", "EL5")
		u.AddGroup("G3", "EL3", "EL4")
		u.AddGroup("G4", "EL1")
		if err := u.Validate(); err != nil {
			b.Fatal(err)
		}
		for _, src := range elems {
			n := 0
			for _, dst := range elems {
				if u.Access(src, dst) {
					n++
				}
			}
			if n != want[src] {
				b.Fatalf("access row %s = %d targets, want %d", src, n, want[src])
			}
		}
	}
}

// BenchmarkE2Histories regenerates the Section 7 enumeration: the diamond
// computation's 6 histories and 3 maximal valid history sequences
// (vs 2 linear extensions).
func BenchmarkE2Histories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := core.NewBuilder()
		ids := make([]core.EventID, 4)
		for k := range ids {
			ids[k] = bd.Event(fmt.Sprintf("EL%d", k+1), "E", core.Params{})
		}
		bd.Enable(ids[0], ids[1])
		bd.Enable(ids[0], ids[2])
		bd.Enable(ids[1], ids[3])
		bd.Enable(ids[2], ids[3])
		c, err := bd.Build()
		if err != nil {
			b.Fatal(err)
		}
		if got := history.Count(c); got != 6 {
			b.Fatalf("histories = %d, want 6", got)
		}
		if got := history.CountComplete(c); got != 3 {
			b.Fatalf("vhs = %d, want 3", got)
		}
		if got := history.EnumerateLinear(c, func(history.Sequence) bool { return true }); got != 2 {
			b.Fatalf("linear extensions = %d, want 2", got)
		}
	}
}

// BenchmarkE3RWSpec compiles the Section 8 Readers/Writers problem
// specification (through the gemlang parser) and checks a serialized
// computation against it, including the temporal priority restriction.
func BenchmarkE3RWSpec(b *testing.B) {
	users := []string{"u1", "u2"}
	for i := 0; i < b.N; i++ {
		s, err := rw.ProblemSpec(users, true)
		if err != nil {
			b.Fatal(err)
		}
		c, err := rw.BuildComputation(s, []rw.Transaction{
			{User: "u1", Write: true, Value: 7},
			{User: "u2"},
			{User: "u1"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res := legal.Check(s, c, legal.Options{}); !res.Legal() {
			b.Fatal(res.Error())
		}
	}
}

// BenchmarkE4MonitorRW reproduces the Section 9 verification: exhaustive
// exploration of the paper's ReadersWriters monitor (2 readers, 1
// writer) with the priority, mutual-exclusion, and sharing properties
// checked on every computation; the writers-priority mutant must fail.
// The j sub-benchmarks exercise the parallel check engine
// (logic.HoldsEvery fans (computation, property) pairs out to a worker
// pool); j=1 is the sequential engine.
func BenchmarkE4MonitorRW(b *testing.B) {
	w := rw.Workload{Readers: 2, Writers: 1}
	me, rp := rw.MutualExclusionProp(), rw.ReadersPriorityProp()
	for _, j := range []int{1, 4} {
		j := j
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			opts := logic.CheckOptions{Parallelism: j}
			for i := 0; i < b.N; i++ {
				runs, _, err := monitor.Explore(rw.NewProgram(rw.ReadersPriority, w), monitor.ExploreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				comps := make([]*core.Computation, len(runs))
				for k, r := range runs {
					comps[k] = r.Comp
				}
				if ci, _, _ := logic.HoldsEvery([]logic.Formula{me, rp}, comps, opts); ci >= 0 {
					b.Fatal("paper monitor must satisfy ME and readers priority")
				}
				// The mutant must be refuted at least once.
				mutantRuns, _, err := monitor.Explore(rw.NewProgram(rw.WritersPriority, w), monitor.ExploreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				mutants := make([]*core.Computation, len(mutantRuns))
				for k, r := range mutantRuns {
					mutants[k] = r.Comp
				}
				if ci, _, _ := logic.HoldsEvery([]logic.Formula{rp}, mutants, opts); ci < 0 {
					b.Fatal("writers-priority mutant must be refuted")
				}
			}
		})
	}
}

// BenchmarkE5Primitives exercises the three language substrates: one
// sample program per primitive, explored exhaustively, every computation
// checked against the primitive's own GEM specification.
func BenchmarkE5Primitives(b *testing.B) {
	monProg := rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 1, Writers: 1})
	monSpec := monitor.Spec(monProg)
	cspProg := boundedbuf.NewCSPProgram(boundedbuf.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2, Capacity: 1})
	cspSpec := csp.Spec(cspProg)
	adaProg := boundedbuf.NewAdaProgram(boundedbuf.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2, Capacity: 1})
	adaSpec := ada.Spec(adaProg)
	for i := 0; i < b.N; i++ {
		mruns, _, err := monitor.Explore(monProg, monitor.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range mruns {
			if res := legal.Check(monSpec, r.Comp, legal.Options{}); !res.Legal() {
				b.Fatal(res.Error())
			}
		}
		cruns, _, err := csp.Explore(cspProg, csp.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range cruns {
			if res := legal.Check(cspSpec, r.Comp, legal.Options{}); !res.Legal() {
				b.Fatal(res.Error())
			}
		}
		aruns, _, err := ada.Explore(adaProg, ada.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range aruns {
			if res := legal.Check(adaSpec, r.Comp, legal.Options{}); !res.Legal() {
				b.Fatal(res.Error())
			}
		}
	}
}

// BenchmarkE6ProblemSpecs compiles the problem-specification catalogue
// the paper reports — One-Slot Buffer, Bounded Buffer, and the
// Readers/Writers spec in both priority flavours — and checks a nominal
// computation for each.
func BenchmarkE6ProblemSpecs(b *testing.B) {
	osW := oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}
	bbW := boundedbuf.Workload{Producers: 2, Consumers: 2, ItemsPerProducer: 2, Capacity: 2}
	users := []string{"u1", "u2"}
	for i := 0; i < b.N; i++ {
		osSpec, err := oneslot.ProblemSpec(osW)
		if err != nil {
			b.Fatal(err)
		}
		osComp, err := boundedbuf.BuildComputation(osSpec, boundedbuf.Workload{
			Producers: 1, Consumers: 1, ItemsPerProducer: 2, Capacity: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res := legal.Check(osSpec, osComp, legal.Options{}); !res.Legal() {
			b.Fatal(res.Error())
		}
		bbSpec, err := boundedbuf.ProblemSpec(bbW)
		if err != nil {
			b.Fatal(err)
		}
		bbComp, err := boundedbuf.BuildComputation(bbSpec, bbW)
		if err != nil {
			b.Fatal(err)
		}
		if res := legal.Check(bbSpec, bbComp, legal.Options{}); !res.Legal() {
			b.Fatal(res.Error())
		}
		for _, prio := range []bool{true, false} {
			rwSpec, err := rw.ProblemSpec(users, prio)
			if err != nil {
				b.Fatal(err)
			}
			rwComp, err := rw.BuildComputation(rwSpec, []rw.Transaction{
				{User: "u1", Write: true, Value: 3}, {User: "u2"},
			})
			if err != nil {
				b.Fatal(err)
			}
			if res := legal.Check(rwSpec, rwComp, legal.Options{}); !res.Legal() {
				b.Fatal(res.Error())
			}
		}
	}
}

// BenchmarkE7Matrix runs the full Section 11 verification matrix: three
// languages × three problems, each exhaustively explored and checked
// with the sat methodology. Every run is checked as it is explored: at
// j=1 on the exploring goroutine, at higher j on a sat-check worker pool
// (fanout.First), with the shared history-lattice cache either way.
func BenchmarkE7Matrix(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts check.Options
	}{
		{"j1", check.Options{Parallelism: 1}},
		{"j4", check.Options{Parallelism: 4}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := check.RunMatrixCells(io.Discard, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Distributed runs the two distributed applications: all
// schedules of the database-update algorithm (convergence), and a sample
// of asynchronous Life schedules against the synchronous reference.
func BenchmarkE8Distributed(b *testing.B) {
	cfg := dbupdate.Config{Sites: 3, Updates: []dbupdate.Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	board := life.NewBoard(5, 5)
	board[2][1], board[2][2], board[2][3] = true, true, true
	const gens = 3
	want := life.SyncRun(board.Clone(), gens)
	for i := 0; i < b.N; i++ {
		runs, _, err := dbupdate.Explore(cfg, dbupdate.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			if !r.Converged {
				b.Fatal("dbupdate diverged")
			}
		}
		for seed := int64(0); seed < 4; seed++ {
			run, err := life.AsyncRun(board.Clone(), gens, seed)
			if err != nil {
				b.Fatal(err)
			}
			if !run.Final.Equal(want) {
				b.Fatal("life diverged")
			}
		}
	}
}

// BenchmarkE9HistoryVsState is the Section 8.4 ablation: checking the
// readers-priority property via the paper's history-based temporal
// restriction (over history pairs) versus the structural event-order
// encoding (a state-style reduction evaluated once). Both decide the
// same property; the benchmark measures the cost of generality.
func BenchmarkE9HistoryVsState(b *testing.B) {
	users := []string{"r1", "r2", "w1"}
	w := rw.Workload{Readers: 2, Writers: 1}
	runs, _, err := monitor.Explore(rw.NewProgram(rw.ReadersPriority, w), monitor.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	problem, err := rw.ProblemSpec(users, true)
	if err != nil {
		b.Fatal(err)
	}
	corr := rw.MonitorCorrespondence()
	var projections []*core.Computation
	for _, r := range runs[:4] {
		proj, err := verify.Project(r.Comp, corr)
		if err != nil {
			b.Fatal(err)
		}
		thread.Apply(proj.Comp, problem.Threads()...)
		projections = append(projections, proj.Comp)
	}
	var priority logic.Formula
	for _, r := range problem.Restrictions() {
		if r.Name == "readers-priority" {
			priority = r.F
		}
	}
	if priority == nil {
		b.Fatal("priority restriction missing")
	}
	b.Run("history-temporal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range projections {
				if cx := logic.Holds(priority, c, logic.CheckOptions{}); cx != nil {
					b.Fatal(cx.Error())
				}
			}
		}
	})
	structural := rw.ReadersPriorityProp()
	b.Run("structural-state", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range runs[:4] {
				if cx := logic.Holds(structural, r.Comp, logic.CheckOptions{}); cx != nil {
					b.Fatal(cx.Error())
				}
			}
		}
	})
}

// BenchmarkE10VhsVsLinear is the Section 7 ablation: deciding a temporal
// formula over all maximal valid history sequences (GEM's semantics, with
// simultaneous concurrent steps) versus linear extensions only.
func BenchmarkE10VhsVsLinear(b *testing.B) {
	// A fence poset: n concurrent chains of length 2 — vhs count grows
	// much faster than linear-extension count per added chain.
	build := func(chains int) *core.Computation {
		bd := core.NewBuilder()
		for k := 0; k < chains; k++ {
			a := bd.Event(fmt.Sprintf("A%d", k), "E", core.Params{})
			c := bd.Event(fmt.Sprintf("B%d", k), "E", core.Params{})
			bd.Enable(a, c)
		}
		c, err := bd.Build()
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	c := build(3)
	// Both arms enumerate their sequence set and evaluate the formula on
	// each sequence, as sequence enumeration does: Holds would decide this
	// formula on the history lattice without enumerating either set.
	f := logic.Box{F: logic.Diamond{F: logic.TrueF{}}}
	holdsOn := func(enumerate func(*core.Computation, func(history.Sequence) bool) int) bool {
		ok := true
		enumerate(c, func(s history.Sequence) bool {
			ok = f.Eval(logic.NewSeqEnv(s, 0))
			return ok
		})
		return ok
	}
	b.Run("vhs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !holdsOn(history.EnumerateComplete) {
				b.Fatalf("%s fails on a valid history sequence", f)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !holdsOn(history.EnumerateLinear) {
				b.Fatalf("%s fails on a linear extension", f)
			}
		}
	})
	b.Run("counts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vhs := history.CountComplete(c)
			lin := history.EnumerateLinear(c, func(history.Sequence) bool { return true })
			if vhs <= lin {
				b.Fatalf("vhs=%d should exceed linear=%d", vhs, lin)
			}
		}
	})
}

// --- Parameter sweeps ---------------------------------------------------

// BenchmarkSweepHistories scales the Section 7 enumeration: fence posets
// of k independent 2-chains (2k events). History and vhs counts grow
// exponentially with the concurrency width; the bench records the cost
// per k.
func BenchmarkSweepHistories(b *testing.B) {
	for chains := 1; chains <= 4; chains++ {
		chains := chains
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			bd := core.NewBuilder()
			for k := 0; k < chains; k++ {
				a := bd.Event(fmt.Sprintf("A%d", k), "E", core.Params{})
				c := bd.Event(fmt.Sprintf("B%d", k), "E", core.Params{})
				bd.Enable(a, c)
			}
			c, err := bd.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				history.Count(c)
			}
		})
	}
}

// BenchmarkSweepMonitorExploration scales the Section 9 verification
// workload with the number of readers (1 writer throughout). The monitor
// solution is explored and projected onto the Readers/Writers problem
// spec once, untimed; the timed region is the sat check of the spec's
// restrictions — including the temporal readers-priority restriction —
// over the first sweepProjections projections; the lattice engine decides
// the priority restriction.
func BenchmarkSweepMonitorExploration(b *testing.B) {
	const sweepProjections = 16
	corr := rw.MonitorCorrespondence()
	for readers := 1; readers <= 3; readers++ {
		readers := readers
		if readers == 3 && testing.Short() {
			continue // exploring readers=3 alone takes ~13s
		}
		clients := make([]string, 0, readers+1)
		for r := 1; r <= readers; r++ {
			clients = append(clients, fmt.Sprintf("r%d", r))
		}
		clients = append(clients, "w1")
		problem, err := rw.ProblemSpec(clients, true)
		if err != nil {
			b.Fatal(err)
		}
		prog := rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: readers, Writers: 1})
		runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
		var comps []*core.Computation
		for _, r := range runs {
			if len(comps) == sweepProjections {
				break
			}
			proj, err := verify.Project(r.Comp, corr)
			if err != nil {
				b.Fatal(err)
			}
			thread.Apply(proj.Comp, problem.Threads()...)
			comps = append(comps, proj.Comp)
		}
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, c := range comps {
					res := legal.Check(problem, c, legal.Options{})
					if !res.Legal() {
						b.Fatalf("projection %d: %v", k, res.Error())
					}
				}
			}
		})
	}
}

// BenchmarkE12FailingSpecs times the counterexample path — the check a
// user runs while debugging a broken spec — by enumeration and by Holds, at
// readers=3 scale. The workload projects the readers-priority monitor
// solution onto the RW problem (as in the sweep) and checks three
// deliberately failing temporal properties on each projection until one
// is refuted:
//
//   - reads-finish-first: the leads-to □(write requested ∧ ¬write done →
//     ◇(some read freshly done ∧ ¬write done)) — a plausible-looking
//     "some read completes before the write completes" property. It is
//     violated only on the interleavings that delay every reader's
//     FinishRead past the writer's entire transaction, which sit ~1.5k
//     sequences deep in enumeration order (of millions), and the ◇
//     keeps it out of the histories/pairs reductions — so the old
//     failure-side cascade enumerated and evaluated every sequence up
//     to the witness. The lattice engine refutes it from the exact
//     lower bound and walks the Steps DAG for the witness directly.
//   - exists-box: ∃sw:StartWrite □occurred(sw), an ∃ with a temporal
//     body — a shape the whole-formula gate used to reject outright.
//   - temporal-or: □(∃ Getval) ∨ □(∃ Assign), two temporal disjuncts —
//     likewise previously rejected; refuted by the engine's upper bound.
//
// The seq sub-benchmark enumerates complete sequences until one fails;
// lattice is Holds, which extracts the witness from the history lattice.
// E12 in EXPERIMENTS.md records the ratio; scripts/bench.sh bounds the
// lattice entry once a baseline record exists.
func BenchmarkE12FailingSpecs(b *testing.B) {
	if testing.Short() {
		b.Skip("readers=3 exploration takes ~13s; skipped in -short mode")
	}
	const projections = 16
	corr := rw.MonitorCorrespondence()
	clients := []string{"r1", "r2", "r3", "w1"}
	problem, err := rw.ProblemSpec(clients, true)
	if err != nil {
		b.Fatal(err)
	}
	runs, _, err := monitor.Explore(rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 3, Writers: 1}), monitor.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var comps []*core.Computation
	for _, r := range runs {
		if len(comps) == projections {
			break
		}
		proj, err := verify.Project(r.Comp, corr)
		if err != nil {
			b.Fatal(err)
		}
		thread.Apply(proj.Comp, problem.Threads()...)
		comps = append(comps, proj.Comp)
	}
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
	for _, spec := range []struct {
		name string
		f    logic.Formula
	}{
		{"reads-finish-first", readsFinishFirst},
		{"exists-box", existsBox},
		{"temporal-or", temporalOr},
	} {
		spec := spec
		// engine=seq enumerates the complete sequences until one falsifies
		// the formula, as sequence enumeration does; engine=lattice runs
		// Holds, which decides these formulas on the history lattice.
		for _, eng := range []struct {
			name    string
			refutes func(*core.Computation) bool
		}{
			{"engine=seq", func(c *core.Computation) bool {
				refuted := false
				history.EnumerateComplete(c, func(s history.Sequence) bool {
					refuted = !spec.f.Eval(logic.NewSeqEnv(s, 0))
					return !refuted
				})
				return refuted
			}},
			{"engine=lattice", func(c *core.Computation) bool {
				return logic.Holds(spec.f, c, logic.CheckOptions{}) != nil
			}},
		} {
			eng := eng
			b.Run(spec.name+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					refuted := false
					for _, c := range comps {
						if eng.refutes(c) {
							refuted = true
							break
						}
					}
					if !refuted {
						b.Fatalf("%s not refuted on any projection", spec.name)
					}
				}
			})
		}
	}
}

// BenchmarkE14WarmStore measures incremental checking on the persistent
// result store: the full readers-writers sat check (monitor solution,
// default engine) against a cold store — every verdict evaluated and
// written behind — versus a warm one, where every computation hits the
// whole-check sat layer and skips projection, legality, and temporal
// evaluation entirely. Exploration runs once outside the timer for both
// arms, so the ratio isolates exactly what the store accelerates.
func BenchmarkE14WarmStore(b *testing.B) {
	var sc check.Scenario
	for _, s := range check.Matrix() {
		if s.Problem == "readers-writers" && s.Language == check.Monitor {
			sc = s
		}
	}
	problem, corr, err := sc.Setup()
	if err != nil {
		b.Fatal(err)
	}
	var comps []*core.Computation
	truncated, err := sc.Stream(func(c *core.Computation) bool {
		comps = append(comps, c)
		return true
	})
	if err != nil || truncated {
		b.Fatalf("exploration: truncated=%v err=%v", truncated, err)
	}
	runCheck := func(b *testing.B, st *store.Store) {
		idx, res := verify.CheckAll(problem, comps, corr,
			logic.CheckOptions{Cache: st})
		if idx >= 0 {
			b.Fatalf("computation %d: %v", idx, res.Error())
		}
	}
	b.Run("cold", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(filepath.Join(dir, fmt.Sprint(i)), store.ReadWrite)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			runCheck(b, st)
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.ReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		runCheck(b, st) // prime the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCheck(b, st)
		}
		if st.Stats().Hits == 0 {
			b.Fatal("warm arm never hit the store")
		}
	})
}

// BenchmarkE15RaceCorpus measures the static data-race pipeline end to
// end: gofront extraction (access and lockset recording included) plus
// the race pass's MHP × lockset analysis, over the whole race fixture
// corpus — the gemgo work a cold run over those packages performs,
// minus only the output formatting. Loading/type-checking happens once
// outside the timer so the number isolates extraction + analysis.
func BenchmarkE15RaceCorpus(b *testing.B) {
	dirs, err := gofront.ExpandPatterns([]string{filepath.Join("internal", "race", "testdata", "src") + "/..."})
	if err != nil {
		b.Fatal(err)
	}
	if len(dirs) < 8 {
		b.Fatalf("race corpus has %d packages, want 8+", len(dirs))
	}
	pkgs := make([]*gofront.Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = gofront.LoadDir(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := 0
		for _, pkg := range pkgs {
			res := gofront.Analyze(pkg)
			for _, m := range res.Models {
				pairs += len(race.Pairs(m))
			}
		}
		if pairs < 4 {
			b.Fatalf("race corpus yielded %d racy pairs, want one per defect fixture (4+)", pairs)
		}
	}
}

// BenchmarkAblationClosureVsDFS compares the two temporal-order
// representations on a realistic computation (a full RW monitor run):
// precomputed bitset reachability (what core.Computation does) versus
// on-demand DFS per query.
func BenchmarkAblationClosureVsDFS(b *testing.B) {
	runs, _, err := monitor.Explore(rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 2, Writers: 1}), monitor.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	comp := runs[0].Comp
	n := comp.NumEvents()
	// Rebuild the underlying DAG (enable ∪ element order) for the DFS
	// baseline.
	dag := order.NewDAG(n)
	for _, e := range comp.Events() {
		for _, succ := range comp.Enabled(e.ID) {
			dag.AddEdge(int(e.ID), int(succ))
		}
	}
	for _, elem := range comp.Elements() {
		ids := comp.EventsAt(elem)
		for i := 1; i < len(ids); i++ {
			dag.AddEdge(int(ids[i-1]), int(ids[i]))
		}
	}
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					_ = comp.Temporal(core.EventID(u), core.EventID(v))
				}
			}
		}
	})
	b.Run("dfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					_ = dag.ReachesDFS(u, v)
				}
			}
		}
	})
}

// BenchmarkE16Campaign measures mutation-campaign throughput on the
// persistent store: a fixed-seed 300-mutant campaign (generation,
// checking, judging with the oracle, ddmin shrinking, corpus persistence)
// against a cold store versus a warm one where every restriction verdict
// is served from disk. The oracle is not cached, so it runs in both arms.
// scripts/bench.sh asserts the warm/cold speedup via benchjson -compare.
func BenchmarkE16Campaign(b *testing.B) {
	runCampaign := func(b *testing.B, st *store.Store) {
		rep, err := mutate.Run(mutate.Config{
			N: 300, Seed: 7, Parallelism: 1, Cache: st, Store: st,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) > 0 {
			b.Fatalf("campaign reported %d findings", len(rep.Findings))
		}
	}
	b.Run("cold", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(filepath.Join(dir, fmt.Sprint(i)), store.ReadWrite)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			runCampaign(b, st)
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.ReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		runCampaign(b, st) // prime the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCampaign(b, st)
		}
		if st.Stats().Hits == 0 {
			b.Fatal("warm arm never hit the store")
		}
	})
}
