// Package check assembles the paper's verification case studies into
// runnable scenarios: the full language × problem matrix of Section 11
// (Monitor, CSP, and ADA solutions to the One-Slot Buffer, the Bounded
// Buffer, and the Reader's-Priority Readers/Writers problem), each
// verified with the Section 9 sat methodology over an exhaustive
// exploration. cmd/gemverify prints the matrix; the benchmark harness
// reuses the same scenarios.
package check

import (
	"context"
	"fmt"
	"io"
	"time"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/explore"
	"gem/internal/fanout"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/obs"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/verify"
)

// Options configures how scenarios are executed.
type Options struct {
	// Parallelism is the checking worker count. Each scenario checks
	// every computation as the simulator emits it: 0 or 1 checks it on
	// the exploring goroutine, a value > 1 hands it to a pool of
	// sat-check workers, so exploration overlaps checking (fanout.First).
	// Verdicts, run counts and first-failure indices are identical at
	// every value.
	Parallelism int
	// Ctx carries cancellation (and the span context) into exploration
	// and checking: a cancelled context stops the simulator and the
	// check workers promptly, and the scenario reports an interrupted
	// cell instead of a verdict. nil means never cancelled.
	Ctx context.Context
	// Cache, when non-nil, is the persistent result store threaded into
	// every sat check: restriction verdicts and (when the value also
	// implements verify.SatCache) whole-check sat records are looked up
	// before evaluating and written behind on a miss. Verdicts are
	// identical with and without it.
	Cache logic.VerdictCache
}

func firstOpt(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// Language names a concurrency primitive.
type Language string

// The three language primitives the paper describes.
const (
	Monitor Language = "monitor"
	CSP     Language = "csp"
	Ada     Language = "ada"
)

// Languages lists all three.
func Languages() []Language { return []Language{Monitor, CSP, Ada} }

// Scenario is one cell of the verification matrix: explore every
// computation of a solution and check it against its problem spec.
type Scenario struct {
	Problem  string
	Language Language
	// Setup returns the problem spec and the correspondence.
	Setup func() (*spec.Spec, verify.Correspondence, error)
	// Stream explores the solution, yielding each computation in the
	// deterministic exploration order; it reports truncation. Deadlocked
	// runs surface as errors.
	Stream func(yield func(*core.Computation) bool) (bool, error)
}

// Cell is the outcome of running one scenario.
type Cell struct {
	Scenario Scenario
	Runs     int
	Verified bool
	Err      error
	Elapsed  time.Duration
}

// Run executes the scenario: every computation is checked as it is
// explored, on Options.Parallelism workers. At every parallelism the
// first computation in exploration order that fails decides the cell
// and stops the exploration, so a failing cell reports the same error
// and Runs = index+1 at every -j. An exploration error (a deadlocked
// run) or a truncation is reported only when no earlier computation
// failed.
func (s Scenario) Run(opts ...Options) Cell {
	opt := firstOpt(opts)
	start := time.Now()
	name := ""
	if obs.Enabled() {
		name = "scenario " + s.Problem + "/" + string(s.Language)
	}
	ctx, sp := obs.StartSpan(opt.Ctx, name)
	defer sp.End()
	problem, corr, err := s.Setup()
	if err != nil {
		return Cell{Scenario: s, Err: err, Elapsed: time.Since(start)}
	}
	copts := logic.CheckOptions{Ctx: ctx, Cache: opt.Cache}
	var truncated bool
	var serr error
	idx, res, runs := fanout.First(ctx, opt.Parallelism, func(yield func(*core.Computation) bool) {
		truncated, serr = s.Stream(yield)
	}, func(_ int, c *core.Computation) (verify.Result, bool) {
		r := verify.Check(problem, c, corr, copts)
		return r, r.Sat()
	})
	cell := Cell{Scenario: s, Runs: runs, Elapsed: time.Since(start)}
	switch {
	case idx >= 0:
		cell.Err = fmt.Errorf("computation %d: %w", idx, res.Error())
	case serr != nil:
		cell.Err = serr
	case logic.Cancelled(logic.Done(ctx)):
		// Whatever the partial work reached is not a verdict on the
		// scenario.
		cell.Err = fmt.Errorf("check: %s/%s interrupted: %w", s.Problem, s.Language, opt.Ctx.Err())
	case truncated:
		cell.Err = fmt.Errorf("check: %s exploration truncated", s.Language)
	default:
		cell.Verified = true
	}
	return cell
}

// Matrix returns the nine scenarios of the paper's Section 11 claim.
func Matrix() []Scenario {
	var out []Scenario
	for _, lang := range Languages() {
		out = append(out, oneslotScenario(lang), boundedbufScenario(lang), rwScenario(lang))
	}
	return out
}

// stream adapts a simulator's ExploreStream to the scenario streaming
// shape; run unpacks the language's Run type. Deadlocked runs surface as
// errors.
func stream[P, R any](lang Language, p P,
	exploreStream func(P, explore.Options, func(R) bool) (bool, error),
	run func(R) (comp *core.Computation, deadlock bool),
) func(yield func(*core.Computation) bool) (bool, error) {
	return func(yield func(*core.Computation) bool) (bool, error) {
		i := 0
		var deadlock error
		trunc, err := exploreStream(p, explore.Options{MaxRuns: 60000}, func(r R) bool {
			c, dead := run(r)
			if dead {
				deadlock = fmt.Errorf("check: %s run %d deadlocked", lang, i)
				return false
			}
			i++
			return yield(c)
		})
		if err == nil {
			err = deadlock
		}
		return trunc, err
	}
}

func streamMonitor(p *monitor.Program) func(yield func(*core.Computation) bool) (bool, error) {
	return stream(Monitor, p, monitor.ExploreStream, func(r monitor.Run) (*core.Computation, bool) { return r.Comp, r.Deadlock })
}

func streamCSP(p *csp.Program) func(yield func(*core.Computation) bool) (bool, error) {
	return stream(CSP, p, csp.ExploreStream, func(r csp.Run) (*core.Computation, bool) { return r.Comp, r.Deadlock })
}

func streamAda(p *ada.Program) func(yield func(*core.Computation) bool) (bool, error) {
	return stream(Ada, p, ada.ExploreStream, func(r ada.Run) (*core.Computation, bool) { return r.Comp, r.Deadlock })
}

func oneslotScenario(lang Language) Scenario {
	w := oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}
	s := Scenario{Problem: "one-slot-buffer", Language: lang}
	switch lang {
	case Monitor:
		s.Stream = streamMonitor(oneslot.NewMonitorProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := oneslot.ProblemSpec(w)
			return problem, oneslot.MonitorCorrespondence(), err
		}
	case CSP:
		s.Stream = streamCSP(oneslot.NewCSPProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := oneslot.ProblemSpec(w)
			return problem, oneslot.CSPCorrespondence(w), err
		}
	default:
		s.Stream = streamAda(oneslot.NewAdaProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := oneslot.ProblemSpec(w)
			return problem, oneslot.AdaCorrespondence(), err
		}
	}
	return s
}

func boundedbufScenario(lang Language) Scenario {
	w := boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}
	s := Scenario{Problem: "bounded-buffer", Language: lang}
	switch lang {
	case Monitor:
		s.Stream = streamMonitor(boundedbuf.NewMonitorProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := boundedbuf.ProblemSpec(w)
			return problem, boundedbuf.MonitorCorrespondence(w.Capacity), err
		}
	case CSP:
		s.Stream = streamCSP(boundedbuf.NewCSPProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := boundedbuf.ProblemSpec(w)
			return problem, boundedbuf.CSPCorrespondence(w), err
		}
	default:
		s.Stream = streamAda(boundedbuf.NewAdaProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := boundedbuf.ProblemSpec(w)
			return problem, boundedbuf.AdaCorrespondence(), err
		}
	}
	return s
}

func rwScenario(lang Language) Scenario {
	w := rw.Workload{Readers: 2, Writers: 1}
	clients := []string{"r1", "r2", "w1"}
	s := Scenario{Problem: "readers-writers", Language: lang}
	setup := func(corr verify.Correspondence) func() (*spec.Spec, verify.Correspondence, error) {
		return func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := rw.ProblemSpec(clients, true)
			return problem, corr, err
		}
	}
	switch lang {
	case Monitor:
		s.Stream = streamMonitor(rw.NewProgram(rw.ReadersPriority, w))
		s.Setup = setup(rw.MonitorCorrespondence())
	case CSP:
		s.Stream = streamCSP(rw.NewCSPProgram(w))
		s.Setup = setup(rw.CSPCorrespondence(w))
	default:
		s.Stream = streamAda(rw.NewAdaProgram(w))
		s.Setup = setup(rw.AdaCorrespondence())
	}
	return s
}

// RunMatrixCells executes every scenario, prints a table and returns the
// executed cells in matrix order, so front ends (gemverify -sarif) can
// render the outcomes in other formats; the error is non-nil if any cell
// fails. Pass Options{Parallelism: n} to check on n workers. An
// interrupted matrix returns the cells that ran.
func RunMatrixCells(w io.Writer, opts ...Options) ([]Cell, error) {
	opt := firstOpt(opts)
	done := logic.Done(opt.Ctx)
	fmt.Fprintf(w, "%-18s %-9s %9s %9s  %s\n", "PROBLEM", "LANGUAGE", "RUNS", "TIME", "RESULT")
	var cells []Cell
	var firstErr error
	for _, s := range Matrix() {
		if logic.Cancelled(done) {
			if firstErr == nil {
				firstErr = fmt.Errorf("check: matrix interrupted: %w", opt.Ctx.Err())
			}
			break
		}
		cell := s.Run(opt)
		cells = append(cells, cell)
		result := "verified"
		if !cell.Verified {
			result = "FAILED: " + cell.Err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/%s: %w", s.Problem, s.Language, cell.Err)
			}
		}
		fmt.Fprintf(w, "%-18s %-9s %9d %9s  %s\n",
			s.Problem, s.Language, cell.Runs, cell.Elapsed.Round(time.Millisecond), result)
	}
	return cells, firstErr
}

// Refutation is a deliberately wrong solution paired with the problem
// spec that must reject it — the negative side of the verification
// matrix.
type Refutation struct {
	Name string
	// Build returns the problem spec, computations, and correspondence;
	// at least one computation must fail the sat check.
	Build func() (*spec.Spec, []*core.Computation, verify.Correspondence, error)
}

// Refutations returns the matrix's negative controls.
func Refutations() []Refutation {
	return []Refutation{
		{
			Name: "writers-priority-monitor vs readers-priority-spec",
			Build: func() (*spec.Spec, []*core.Computation, verify.Correspondence, error) {
				w := rw.Workload{Readers: 2, Writers: 1}
				problem, err := rw.ProblemSpec([]string{"r1", "r2", "w1"}, true)
				if err != nil {
					return nil, nil, verify.Correspondence{}, err
				}
				var comps []*core.Computation
				truncated, err := streamMonitor(rw.NewProgram(rw.WritersPriority, w))(func(c *core.Computation) bool {
					comps = append(comps, c)
					return true
				})
				if err == nil && truncated {
					err = fmt.Errorf("check: monitor exploration truncated")
				}
				return problem, comps, rw.MonitorCorrespondence(), err
			},
		},
		{
			Name: "unguarded-deposit vs capacity-spec",
			Build: func() (*spec.Spec, []*core.Computation, verify.Correspondence, error) {
				w := boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 1}
				problem, err := boundedbuf.ProblemSpec(w)
				if err != nil {
					return nil, nil, verify.Correspondence{}, err
				}
				prog := boundedbuf.NewMonitorProgram(w)
				for i, e := range prog.Monitor.Entries {
					if e.Name == "deposit" {
						prog.Monitor.Entries[i].Body = e.Body[1:] // drop the full-check
					}
				}
				// The mutant can deadlock on some schedules (consumer done
				// before the overflowing deposit); keep the non-deadlocked
				// computations, which exhibit the overflow.
				runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: 60000})
				if err != nil {
					return nil, nil, verify.Correspondence{}, err
				}
				var comps []*core.Computation
				for _, r := range runs {
					if !r.Deadlock {
						comps = append(comps, r.Comp)
					}
				}
				return problem, comps, boundedbuf.MonitorCorrespondence(w.Capacity), nil
			},
		},
	}
}

// RunRefutations executes the negative controls: each must be refuted on
// at least one computation. Parallel runs report the same (lowest)
// refuting computation index as sequential ones. A cancelled run stops
// with an interrupted error.
func RunRefutations(w io.Writer, opts ...Options) error {
	return runRefutations(w, Refutations(), firstOpt(opts))
}

// runRefutations is RunRefutations over the controls refs.
func runRefutations(w io.Writer, refs []Refutation, opt Options) error {
	done := logic.Done(opt.Ctx)
	var firstErr error
	interrupted := func() error {
		if firstErr == nil {
			firstErr = fmt.Errorf("check: refutations interrupted: %w", opt.Ctx.Err())
		}
		return firstErr
	}
	for _, r := range refs {
		if logic.Cancelled(done) {
			return interrupted()
		}
		problem, comps, corr, err := r.Build()
		if err != nil {
			fmt.Fprintf(w, "%-55s ERROR: %v\n", r.Name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		idx, _ := verify.CheckAll(problem, comps, corr,
			logic.CheckOptions{Parallelism: opt.Parallelism, Ctx: opt.Ctx, Cache: opt.Cache})
		// A cancelled CheckAll may stop before the refuting computation,
		// so its -1 is no verdict.
		if logic.Cancelled(done) {
			return interrupted()
		}
		if idx < 0 {
			fmt.Fprintf(w, "%-55s NOT refuted (%d computations) — matrix broken\n", r.Name, len(comps))
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: expected a refutation", r.Name)
			}
			continue
		}
		fmt.Fprintf(w, "%-55s refuted as expected (computation %d of %d)\n", r.Name, idx, len(comps))
	}
	return firstErr
}
