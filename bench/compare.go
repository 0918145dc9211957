package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the metric names, units and regression
// bounds the benchmark reports, and the length of one timed phase.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a -record file: a run's result with the
// workload, seed and mode that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// readRecords returns the untraced runs of a -record file as
// workload → metric → values.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// judgement compares one metric of one workload between a baseline set
// of runs (a) and a candidate set (b).
type judgement struct {
	Delta   float64 // (median b − median a) / median a
	SpreadA float64
	SpreadB float64
	Status  string // "ok", "regressed" or "unresolved"
}

// judge applies the benchmark's rule: b regressed when its median is
// worse than a's by more than the bound; otherwise the pair is
// unresolved when either side's run-to-run spread exceeds the bound,
// unless every run of b reads better than every run of a.
func judge(m metricSpec, a, b []float64) judgement {
	ma, mb := median(a), median(b)
	j := judgement{Delta: (mb - ma) / ma, SpreadA: spread(a), SpreadB: spread(b), Status: "ok"}
	worse := j.Delta
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		j.Status = "regressed"
	case (j.SpreadA > m.Bound || j.SpreadB > m.Bound) && !allBetter(m, a, b):
		j.Status = "unresolved"
	}
	return j
}

func allBetter(m metricSpec, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareMain prints one row per workload × end-to-end metric of two
// -record files and reports whether any pair regressed or is unresolved.
func compareMain(spec *benchSpec, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	var workloads []string
	for name := range a {
		if b[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tspread A/B\tbound\tstatus")
	clean := true
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\tmissing\n", wl, m.Name, m.Unit)
				clean = false
				continue
			}
			j := judge(m, va, vb)
			if j.Status != "ok" {
				clean = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%/%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, describe(va), describe(vb), 100*j.Delta,
				100*j.SpreadA, 100*j.SpreadB, 100*m.Bound, j.Status)
		}
	}
	return clean, tw.Flush()
}

func describe(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%s [%s, %s] (%d)", num(q[1]), num(q[0]), num(q[2]), len(xs))
}

// num prints a value with four significant digits.
func num(v float64) string {
	if v == 0 || math.IsNaN(v) {
		return fmt.Sprint(v)
	}
	return fmt.Sprintf("%.4g", v)
}
