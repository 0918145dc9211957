package main

import (
	"context"
	"flag"
	"os"
	"regexp"
	"testing"
	"time"

	"gem/internal/monitor"
	"gem/internal/problems/rw"
)

var sweep = flag.Bool("sweep", false, "also check the E12 formulas on all 3,480 readers=3 computations (about a minute)")

// TestMain lets the test binary serve as a request's child process, the
// way the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req, time.Now()))
	}
	os.Exit(m.Run())
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks BENCHMARK.json against the workloads and
// metrics this package implements.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the harness", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	o := &outcome{setups: []float64{1}, samples: []sample{{lat: 1, cpu: 1, alloc: 1, rss: 1, ref: 1}}, refs: []float64{1}, wall: 1}
	got := o.endToEnd()
	if len(got) != len(spec.EndToEnd) {
		t.Errorf("harness reports %d end-to-end metrics, BENCHMARK.json lists %d", len(got), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if _, ok := got[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not measured", m.Name)
		}
	}
}

// TestSmoke runs each workload for two requests, one traced and one
// not, checking every verdict against the known answers; the per-layer
// metrics of BENCHMARK.json must be exactly those some workload reports,
// and the harness's spans must cover at least 90 % of the traced latency
// where requests are CLI processes.
func TestSmoke(t *testing.T) {
	// Under -race a child process sleeps a second before it exits, which
	// the attribution check would see as time no span covers.
	t.Setenv("GORACE", "atexit_sleep_ms=0")
	spec := loadTestSpec(t)
	exp, err := loadExpected("testdata/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(spec.PerLayer))
	for i, m := range spec.PerLayer {
		names[i] = m.Name
	}
	reported := map[string]bool{"trace.overhead": true}
	attributed := map[string]bool{"matrix-cold": true, "matrix-warm": true, "gemgo-corpus": true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &runner{root: "..", exe: exe, tmp: t.TempDir(), seed: 1, exp: exp, ctx: context.Background(),
				setups: 1, maxRequests: 2, maxRuns: 40}
			defer func() { _ = r.close() }() // only a failed run leaves a child behind
			o, err := r.measure(w, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if o.errors != 0 || len(o.samples) != 2 {
				t.Fatalf("%d of %d requests failed", o.errors, o.attempted)
			}
			if err := finite(o.endToEnd()); err != nil {
				t.Error(err)
			}
			layers := o.perLayer(names)
			if err := finite(layers); err != nil {
				t.Error(err)
			}
			for _, s := range o.samples {
				for name := range s.layers {
					reported[name] = true
				}
			}
			if attributed[w.name] {
				p50 := median(o.latencies(func(s sample) bool { return s.traced }))
				if un := layers["unattributed_ms"]; un > 0.1*p50 {
					t.Errorf("harness spans leave %.1f of %.1f ms unattributed", un, p50)
				}
			}
		})
	}
	for _, name := range names {
		if !reported[name] {
			t.Errorf("per-layer metric %s is reported by no workload", name)
		}
		delete(reported, name)
	}
	for name := range reported {
		t.Errorf("workloads report %s, which BENCHMARK.json does not list", name)
	}
}

// TestE12FormulasRefutedEverywhere is the one-off check behind sat-rw3's
// known answer: every readers=3 computation satisfies the problem spec
// and refutes each E12 formula with a witness that verifies. Run it with
// go test -run E12 -sweep.
func TestE12FormulasRefutedEverywhere(t *testing.T) {
	if !*sweep {
		t.Skip("needs -sweep")
	}
	problem, err := rw.ProblemSpec([]string{"r1", "r2", "r3", "w1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	runs, _, err := monitor.Explore(rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 3, Writers: 1}), monitor.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	formulas := e12Formulas()
	for i, run := range runs {
		reply := satRequest(problem, rw.MonitorCorrespondence(), run.Comp, formulas, false)
		if reply.Err != "" || !reply.Verdict.Sat || len(reply.Verdict.Refuted) != len(formulas) {
			t.Fatalf("computation %d: sat=%v refuted=%v %s", i, reply.Verdict.Sat, reply.Verdict.Refuted, reply.Err)
		}
	}
	t.Logf("%d computations: sat, and every E12 formula refuted with a verified witness", len(runs))
}
