package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"syscall"
	"time"
)

// runner drives one workload: set-up, then a closed loop of one client
// with one request in flight, each request checked against the known
// answers.
type runner struct {
	root string // checkout root: fixtures and known answers
	exe  string // this binary, re-executed for every request process
	tmp  string // stores of this run, removed by the caller
	seed int64
	exp  *expected
	ctx  context.Context

	// setups is the number of set-ups per run. maxRequests caps the timed
	// requests and maxRuns the sat-rw3 exploration; zero means no cap.
	// Tests lower all three to stay short.
	setups      int
	maxRequests int
	maxRuns     int

	warmStore string    // matrix-warm: the primed store
	fixtures  []fixture // gemgo-corpus: packages and their golden codes
	sat       *satProc  // sat-rw3: the long-lived child

	refs    []float64 // reference kernel times of the timed phase, ms
	lastRef time.Time
	traces  [][]traceSpan // spans of every traced request
}

// sample is one successful request.
type sample struct {
	lat    float64 // time to verdict, ms
	cpu    float64 // user+sys, ms
	alloc  float64 // bytes allocated, MB
	rss    float64 // peak resident set, MB
	ref    float64 // the reference kernel's time before the request, ms
	traced bool
	layers map[string]float64
}

type workload struct {
	name    string
	setup   func(r *runner) error
	request func(r *runner, i int, traced bool) (sample, error)
}

var workloads = []workload{
	{name: "matrix-cold", setup: coldSetup, request: coldRequest},
	{name: "matrix-warm", setup: warmSetup, request: warmRequest},
	{name: "sat-rw3", setup: satSetup, request: satRequestOf},
	{name: "campaign", setup: campaignSetup, request: campaignRequest},
	{name: "gemgo-corpus", setup: gemgoSetup, request: gemgoRequest},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is a measured run before it is reduced to metrics.
type outcome struct {
	setups    []float64 // s
	samples   []sample
	refs      []float64 // reference kernel, ms
	wall      float64   // timed phase, s
	attempted int
	errors    int
}

// measure sets the workload up r.setups times, then sends requests
// until the timed phase has lasted d (and at least minRequests ran).
func (r *runner) measure(w workload, d time.Duration, trace bool) (*outcome, error) {
	o := &outcome{}
	for k := 0; k < r.setups; k++ {
		start := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	minRequests := 1
	if trace {
		minRequests = 2 // one traced, one not
	}
	start := time.Now()
	for i := 0; i < minRequests || time.Since(start) < d; i++ {
		if r.maxRequests > 0 && i >= r.maxRequests {
			break
		}
		if r.ctx.Err() != nil {
			return nil, fmt.Errorf("%s: run deadline passed after %d requests", w.name, i)
		}
		ref, err := r.reference()
		if err != nil {
			return nil, err
		}
		s, err := w.request(r, i, trace && i%2 == 0)
		o.attempted++
		if err != nil {
			o.errors++
			fmt.Fprintf(os.Stderr, "gembench: %s request %d: %v\n", w.name, i, err)
			continue
		}
		s.ref = ref
		o.samples = append(o.samples, s)
	}
	o.wall = time.Since(start).Seconds()
	o.refs = r.refs
	return o, r.close()
}

// reference returns the latest time of the reference kernel, timing a
// new pass first when the last is refEvery old. Each request is divided
// by the pass nearest before it, since the host's speed drifts within
// seconds. No request process runs during a pass: a sat-rw3 child is
// stopped, or its background garbage collection would slow the kernel.
func (r *runner) reference() (float64, error) {
	if len(r.refs) == 0 || time.Since(r.lastRef) >= refEvery {
		if r.sat != nil {
			if err := r.sat.pause(); err != nil {
				return 0, err
			}
		}
		r.refs = append(r.refs, ms(refKernel()))
		r.lastRef = time.Now()
		if r.sat != nil {
			if err := r.sat.resume(); err != nil {
				return 0, err
			}
		}
	}
	return r.refs[len(r.refs)-1], nil
}

// close stops the sat-rw3 child, if one is running.
func (r *runner) close() error {
	if r.sat == nil {
		return nil
	}
	err := r.sat.stop()
	r.sat = nil
	return err
}

// slow counts requests slower than ten times the median: they count as
// failed, like errors, though their latencies stay in the statistics.
func (o *outcome) slow() int {
	lat := o.latencies(func(sample) bool { return true })
	p50, n := median(lat), 0
	for _, l := range lat {
		if l > 10*p50 {
			n++
		}
	}
	return n
}

func (o *outcome) latencies(keep func(sample) bool) []float64 {
	var xs []float64
	for _, s := range o.samples {
		if keep(s) {
			xs = append(xs, s.lat)
		}
	}
	return xs
}

// raw are the run's times in ms, before they are divided by the
// reference: the median and tail latency, the median CPU time per
// request, and the reference kernel's median.
func (o *outcome) raw() (p50, tail, cpu, ref float64) {
	lat := o.latencies(func(sample) bool { return true })
	var cpus []float64
	for _, s := range o.samples {
		cpus = append(cpus, s.cpu)
	}
	return median(lat), quantile(lat, tailP(len(lat))), median(cpus), median(o.refs)
}

// endToEnd reduces an untraced run to its end-to-end metrics. Times
// other than set-up are in ref units: each request's time divided by
// the reference kernel's time just before it.
func (o *outcome) endToEnd() map[string]float64 {
	var lat, cpu, alloc, rss []float64
	for _, s := range o.samples {
		lat = append(lat, s.lat/s.ref)
		cpu = append(cpu, s.cpu/s.ref)
		alloc = append(alloc, s.alloc)
		rss = append(rss, s.rss)
	}
	return map[string]float64{
		"setup_s":          median(o.setups),
		"latency_p50_ref":  median(lat),
		"latency_tail_ref": quantile(lat, tailP(len(lat))),
		"cpu_per_req_ref":  median(cpu),
		"alloc_mb_per_req": median(alloc),
		"peak_rss_mb":      median(rss),
	}
}

// perLayer reduces a traced run to per-request medians of the layer
// values over its traced requests; names no traced request reported are
// layers the workload does not reach, and read 0.
func (o *outcome) perLayer(names []string) map[string]float64 {
	traced := func(s sample) bool { return s.traced }
	untraced := func(s sample) bool { return !s.traced }
	m := make(map[string]float64, len(names))
	for _, name := range names {
		var xs []float64
		for _, s := range o.samples {
			if s.traced {
				xs = append(xs, s.layers[name])
			}
		}
		if len(xs) > 0 {
			m[name] = median(xs)
		}
	}
	m["trace.overhead"] = median(o.latencies(traced))/median(o.latencies(untraced)) - 1
	return m
}

// spawn runs one request in a fresh process, timing it from spawn to
// exit, and returns the child's report.
func (r *runner) spawn(req childRequest) (childReport, sample, error) {
	var rep childReport
	arg, err := json.Marshal(req)
	if err != nil {
		return rep, sample{}, err
	}
	cmd := exec.CommandContext(r.ctx, r.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(arg))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	runErr := cmd.Run()
	lat := time.Since(start)
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, sample{}, fmt.Errorf("child: %v (report: %v)", runErr, err)
	}
	if rep.Err != "" || runErr != nil {
		return rep, sample{}, fmt.Errorf("child: %v: %s", runErr, rep.Err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	s := sample{
		lat:    ms(lat),
		cpu:    ms(cpuOf(ru)),
		alloc:  float64(rep.Alloc) / (1 << 20),
		rss:    float64(ru.Maxrss) / 1024,
		traced: req.Trace,
		layers: rep.Layers,
	}
	if req.Trace {
		procStart := rep.Main - start.UnixNano()
		s.layers["proc.start_ms"] = float64(procStart) / 1e6
		s.layers["unattributed_ms"] = float64(lat.Nanoseconds()-procStart-covered(rep.Spans)) / 1e6
		spans := []traceSpan{
			{Name: "request", Parent: -1, Start: start.UnixNano(), Dur: lat.Nanoseconds()},
			{Name: "proc.start", Parent: 0, Start: start.UnixNano(), Dur: procStart},
		}
		for _, sp := range rep.Spans {
			if sp.Parent >= 0 {
				sp.Parent += 2
			} else {
				sp.Parent = 0
			}
			spans = append(spans, sp)
		}
		r.traces = append(r.traces, spans)
	}
	return rep, s, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- matrix-cold and matrix-warm ---------------------------------------

func (r *runner) matrix(store string, traced bool) (sample, error) {
	rep, s, err := r.spawn(childRequest{Op: "matrix", Store: store, Trace: traced})
	if err != nil {
		return s, err
	}
	if err := r.exp.checkMatrix(rep.Verdict); err != nil {
		return s, err
	}
	if traced && store != "" {
		size, err := dirSize(store)
		if err != nil {
			return s, err
		}
		s.layers["store.bytes"] = float64(size) / (1 << 20)
	}
	return s, nil
}

// coldRequest runs without a store, so every verdict is computed. Store
// write-behind stays out: writing the ~1,600 records of a cold store
// costs 0.1 to 1.2 s of kernel time on a shared disk, depending on
// other tenants' load, which no reference removes.
func coldRequest(r *runner, _ int, traced bool) (sample, error) {
	return r.matrix("", traced)
}

func coldSetup(r *runner) error {
	_, err := coldRequest(r, -1, false)
	return err
}

// warmSetup primes a fresh store with one cold request, then warms up
// against it.
func warmSetup(r *runner) error {
	if r.warmStore != "" {
		if err := os.RemoveAll(r.warmStore); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(r.tmp, "warm-*")
	if err != nil {
		return err
	}
	r.warmStore = dir
	if _, err := r.matrix(dir, false); err != nil {
		return err
	}
	_, err = r.matrix(dir, false)
	return err
}

func warmRequest(r *runner, _ int, traced bool) (sample, error) {
	return r.matrix(r.warmStore, traced)
}

// --- campaign ----------------------------------------------------------

// requestSeed gives request i of the run its own input seed; runs with
// different seeds draw disjoint inputs. Set-up uses i = -1.
func (r *runner) requestSeed(i int) int64 { return r.seed*1_000_000 + int64(i) }

func campaignRequest(r *runner, i int, traced bool) (sample, error) {
	rep, s, err := r.spawn(childRequest{Op: "campaign", Seed: r.requestSeed(i), Trace: traced})
	if err != nil {
		return s, err
	}
	if rep.Verdict.Findings != r.exp.Campaign.Findings || rep.Verdict.Unique == 0 {
		return s, fmt.Errorf("wrong verdict: campaign %d: %d findings over %d unique mutants, want %d findings",
			r.requestSeed(i), rep.Verdict.Findings, rep.Verdict.Unique, r.exp.Campaign.Findings)
	}
	return s, nil
}

func campaignSetup(r *runner) error {
	_, err := campaignRequest(r, -1, false)
	return err
}

// --- gemgo-corpus ------------------------------------------------------

// fixture is one package of the Go front end's fixture corpus with the
// diagnostic codes its committed golden file records.
type fixture struct {
	dir   string
	codes []string
}

var goldenCode = regexp.MustCompile(`: (GEM\d{3}) `)

// loadFixtures reads the fixture packages and the codes of their golden
// files.
func (r *runner) loadFixtures() ([]fixture, error) {
	var out []fixture
	for _, root := range r.exp.GemgoCorpus.Fixtures {
		dirs, err := filepath.Glob(filepath.Join(r.root, root, "src", "*"))
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			golden, err := os.ReadFile(filepath.Join(r.root, root, filepath.Base(dir)+".golden"))
			if err != nil {
				return nil, err
			}
			f := fixture{dir: dir, codes: []string{}}
			for _, line := range bytes.Split(bytes.TrimSpace(golden), []byte("\n")) {
				if m := goldenCode.FindSubmatch(line); m != nil {
					f.codes = append(f.codes, string(m[1]))
				}
			}
			out = append(out, f)
		}
	}
	if len(out) != r.exp.GemgoCorpus.Packages {
		return nil, fmt.Errorf("found %d fixture packages, want %d", len(out), r.exp.GemgoCorpus.Packages)
	}
	return out, nil
}

func gemgoSetup(r *runner) error {
	fixtures, err := r.loadFixtures()
	if err != nil {
		return err
	}
	r.fixtures = fixtures
	_, err = gemgoRequest(r, -1, false)
	return err
}

// gemgoRequest analyzes every fixture package in an order drawn from the
// request's seed and compares each package's codes with its golden file.
func gemgoRequest(r *runner, i int, traced bool) (sample, error) {
	order := rand.New(rand.NewSource(r.requestSeed(i))).Perm(len(r.fixtures))
	dirs := make([]string, len(order))
	for k, j := range order {
		dirs[k] = r.fixtures[j].dir
	}
	rep, s, err := r.spawn(childRequest{Op: "gemgo", Dirs: dirs, Trace: traced})
	if err != nil {
		return s, err
	}
	if len(rep.Verdict.Packages) != len(dirs) {
		return s, fmt.Errorf("wrong verdict: %d packages analyzed, want %d", len(rep.Verdict.Packages), len(dirs))
	}
	for k, p := range rep.Verdict.Packages {
		want := r.fixtures[order[k]]
		if p.Dir != filepath.Clean(want.dir) || !reflect.DeepEqual(p.Codes, want.codes) {
			return s, fmt.Errorf("wrong verdict: %s reported %v, golden has %v", p.Dir, p.Codes, want.codes)
		}
	}
	return s, nil
}

// --- sat-rw3 -----------------------------------------------------------

// satProc is the long-lived sat-rw3 child and the pipes to it.
type satProc struct {
	cmd       *exec.Cmd
	in        io.WriteCloser
	out       *bufio.Scanner
	procStart float64 // spawn → child main, ms
}

func (p *satProc) call(cmd satCommand) (satReply, error) {
	var reply satReply
	line, err := json.Marshal(cmd)
	if err != nil {
		return reply, err
	}
	if _, err := p.in.Write(append(line, '\n')); err != nil {
		return reply, err
	}
	if !p.out.Scan() {
		return reply, fmt.Errorf("sat-rw3 child stopped answering: %v", p.out.Err())
	}
	if err := json.Unmarshal(p.out.Bytes(), &reply); err != nil {
		return reply, err
	}
	if reply.Err != "" {
		return reply, errors.New(reply.Err)
	}
	return reply, nil
}

// pause stops the child and waits until it has stopped.
func (p *satProc) pause() error {
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	var ws syscall.WaitStatus
	_, err := syscall.Wait4(p.cmd.Process.Pid, &ws, syscall.WUNTRACED, nil)
	if err == nil && !ws.Stopped() {
		err = fmt.Errorf("sat-rw3 child ended while being paused: %v", ws)
	}
	return err
}

func (p *satProc) resume() error { return p.cmd.Process.Signal(syscall.SIGCONT) }

// stop closes the child's input, which ends it, and waits for it.
func (p *satProc) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// satSetup starts a fresh child, which explores the readers=3 monitor
// before it answers; a previous set-up's child is stopped first.
func satSetup(r *runner) error {
	if err := r.close(); err != nil {
		return err
	}
	arg, err := json.Marshal(childRequest{Op: "sat", Seed: r.seed, MaxRuns: r.maxRuns})
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(r.ctx, r.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(arg))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return err
	}
	p := &satProc{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	p.out.Buffer(nil, 64<<20)
	r.sat = p
	if !p.out.Scan() {
		return fmt.Errorf("sat-rw3 child failed during set-up: %v", p.out.Err())
	}
	var ready satReply
	if err := json.Unmarshal(p.out.Bytes(), &ready); err != nil {
		return err
	}
	p.procStart = float64(ready.Main-start.UnixNano()) / 1e6
	if r.maxRuns == 0 && ready.Runs != r.exp.SatRW3.Runs {
		return fmt.Errorf("wrong verdict: readers=3 exploration gave %d runs, want %d", ready.Runs, r.exp.SatRW3.Runs)
	}
	_, err = satRequestOf(r, -1, false)
	return err
}

func satRequestOf(r *runner, i int, traced bool) (sample, error) {
	reply, err := r.sat.call(satCommand{I: i, Trace: traced})
	if err != nil {
		return sample{}, err
	}
	if !reply.Verdict.Sat || !reflect.DeepEqual(reply.Verdict.Refuted, r.exp.SatRW3.Refuted) {
		return sample{}, fmt.Errorf("wrong verdict: sat=%v refuted=%v, want sat and refuted %v",
			reply.Verdict.Sat, reply.Verdict.Refuted, r.exp.SatRW3.Refuted)
	}
	s := sample{
		lat:    float64(reply.Lat) / 1e6,
		cpu:    float64(reply.CPU) / 1e6,
		alloc:  float64(reply.Alloc) / (1 << 20),
		rss:    float64(reply.RSSKB) / 1024,
		traced: traced,
		layers: reply.Layers,
	}
	if traced {
		s.layers["proc.start_ms"] = r.sat.procStart
		s.layers["unattributed_ms"] = float64(reply.Lat-covered(reply.Spans)) / 1e6
		r.traces = append(r.traces, reply.Spans)
	}
	return s, nil
}

// --- known answers -----------------------------------------------------

// expected holds the known answers of bench/testdata/expected.json.
type expected struct {
	Matrix struct {
		Cells       []cellVerdict `json:"cells"`
		Refutations []refVerdict  `json:"refutations"`
	} `json:"matrix"`
	SatRW3 struct {
		Runs    int      `json:"runs"`
		Refuted []string `json:"refuted"`
	} `json:"sat_rw3"`
	Campaign struct {
		Findings int `json:"findings"`
	} `json:"campaign"`
	GemgoCorpus struct {
		Fixtures []string `json:"fixtures"`
		Packages int      `json:"packages"`
	} `json:"gemgo_corpus"`
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range e.Matrix.Cells {
		e.Matrix.Cells[i].Verified = true
	}
	return &e, nil
}

func (e *expected) checkMatrix(v verdict) error {
	if !reflect.DeepEqual(v.Cells, e.Matrix.Cells) {
		return fmt.Errorf("wrong verdict: matrix cells %+v, want %+v", v.Cells, e.Matrix.Cells)
	}
	if !reflect.DeepEqual(v.Refutations, e.Matrix.Refutations) {
		return fmt.Errorf("wrong verdict: refutations %+v, want %+v", v.Refutations, e.Matrix.Refutations)
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// finite reports whether every metric is a number JSON can carry.
func finite(m map[string]float64) error {
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}
