package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.6, 3.4}, {0.9, 4.6},
	} {
		if got := quantile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("quantile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

// TestTailP pins the tail percentile: the highest with ten samples
// beyond it, never below the median.
func TestTailP(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {10, 0.5}, {20, 0.5}, {25, 0.6}, {60, 1 - 1.0/6}, {80, 0.875}, {150, 1 - 1.0/15}, {1800, 1 - 1.0/180},
	} {
		if got := tailP(tc.n); !near(got, tc.want) {
			t.Errorf("tailP(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0, 4.75}, [3]float64{1.8125, 4.125, 7.9375}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{7.0, 7.5, 6.25, 8.125, 9.0, 5.5, 6.0}, [3]float64{6.0, 7.0, 8.125}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if !near(got[i], tc.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 100, 101, 99, 100, 100, 101, 99, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 80, 100, 120, 140, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, scale(steady, 1.08), "ok"},
		{"slower", lower, steady, scale(steady, 1.2), "regressed"},
		{"faster", lower, steady, scale(steady, 0.8), "ok"},
		{"less throughput", higher, steady, scale(steady, 0.8), "regressed"},
		{"more throughput", higher, steady, scale(steady, 1.2), "ok"},
		{"noisy", lower, noisy, noisy, "unresolved"},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.4), "ok"},
	} {
		if got := judge(tc.m, tc.a, tc.b).Status; got != tc.want {
			t.Errorf("%s: status %s, want %s", tc.name, got, tc.want)
		}
	}
}
