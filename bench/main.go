// Command gembench is the repository benchmark. It measures what a user
// of GEM waits for — spec or Go package in, verdict out — on five
// workloads shaped like the CLIs, and checks every verdict against a
// known answer.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// The harness is one closed-loop client with one request in flight. Every
// CLI-shaped request runs in a fresh process — this binary re-executed —
// so process start, runtime init and per-process caches count as users
// pay them; sat-rw3 serves its requests from one long-lived process.
// The last line of standard output is a JSON object with the end-to-end
// metrics of BENCHMARK.json: set-up in seconds, memory in MB, and request
// times in "ref" units, each divided by the time of a fixed reference
// kernel (ref.go) run just before the request, which cancels most of a
// shared host's speed drift. With --trace 1 it holds the per-layer
// metrics instead, taken from the benchmark's own spans around the public
// calls into each layer plus the obs collector's totals. Raw times go to
// standard error. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	mainStart := time.Now()
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req, mainStart))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const (
	// setupReps is how many times each run sets its workload up; setup_s
	// is the median, so one slow set-up does not move it.
	setupReps = 3
	// runSlack is how long a run may take beyond its timed phase before
	// it is abandoned: set-up, the last request and shutdown.
	runSlack = 150 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gembench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 0, "length of the timed phase in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs traced: per-layer metrics and a trace file under .bench_build")
	recordPath := fs.String("record", "", "also append the result, with its workload and seed, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare the untraced runs of two -record files: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gembench:", err)
		return 1
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: gembench -compare A.jsonl B.jsonl")
			return 2
		}
		clean, err := compareMain(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !clean {
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: gembench --workload (%s) [--seed N] [--seconds S] [--trace 0|1]\n", workloadNames())
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	exp, err := loadExpected(filepath.Join("bench", "testdata", "expected.json"))
	if err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp("", "gembench-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	d := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), d+runSlack)
	defer cancel()
	r := &runner{root: ".", exe: exe, tmp: tmp, seed: *seed, exp: exp, ctx: ctx, setups: setupReps}
	// A failed run can leave the sat-rw3 child running; stopping it is
	// cleanup, and its exit status adds nothing to the reported failure.
	defer func() { _ = r.close() }()

	res, err := r.report(spec, w, d, *trace == 1, stderr)
	if err != nil {
		return fail(err)
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fail(err)
		}
		if err := writeTrace(path, r.traces); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "trace: %s (%d traced requests)\n", path, len(r.traces))
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: w.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report measures workload w and reduces the run to the metrics of spec,
// printing them as a table on stderr.
func (r *runner) report(spec *benchSpec, w workload, d time.Duration, trace bool, stderr io.Writer) (result, error) {
	o, err := r.measure(w, d, trace)
	if err != nil {
		return result{}, err
	}
	if len(o.samples) == 0 {
		return result{}, fmt.Errorf("%s: all %d requests failed", w.name, o.attempted)
	}
	res := result{
		Correct:   o.errors == 0,
		Attempted: o.attempted,
		Failed:    o.errors + o.slow(),
		Metrics:   make(map[string]metricValue),
	}
	metrics, values := spec.EndToEnd, map[string]float64(nil)
	if trace {
		metrics = spec.PerLayer
		names := make([]string, len(metrics))
		for i, m := range metrics {
			names[i] = m.Name
		}
		values = o.perLayer(names)
	} else {
		values = o.endToEnd()
	}
	if err := finite(values); err != nil {
		return result{}, err
	}
	n := len(o.samples)
	p50, tail, cpu, ref := o.raw()
	fmt.Fprintf(stderr, "%s seed=%d: %d requests in %.1fs, failed_frac=%.4f, set-ups %v s, tail = p%.1f of N=%d\n",
		w.name, r.seed, o.attempted, o.wall, float64(res.Failed)/float64(o.attempted),
		roundAll(o.setups), 100*tailP(n), n)
	fmt.Fprintf(stderr, "  raw: latency p50 %.2f ms, tail %.2f ms, cpu %.2f ms/req; ref = %.3f ms (median of %d)\n",
		p50, tail, cpu, ref, len(o.refs))
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok && !trace {
			return result{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stderr, "  %-24s %14.4f %s\n", m.Name, v, m.Unit)
	}
	return res, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
