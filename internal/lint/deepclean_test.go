package lint_test

import (
	"testing"

	"gem/internal/lint"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/rw"
)

// deepDiags returns the deep findings (GEM009–GEM012) of a result.
func deepDiags(res *lint.Result) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range res.Diags {
		if lint.IsDeep(d.Code) {
			out = append(out, d)
		}
	}
	return out
}

// TestShippedSpecsDeepClean: the problem specs the repo verifies must
// produce no deep diagnostics — the analyzer must not cry wolf on the
// paper's own examples.
func TestShippedSpecsDeepClean(t *testing.T) {
	bufSpec, err := boundedbuf.ProblemSpec(boundedbuf.Workload{
		Producers: 2, Consumers: 2, ItemsPerProducer: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	rwSpec, err := rw.ProblemSpec([]string{"u1", "u2", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		res  *lint.Result
	}{
		{"boundedbuf", lint.Analyze(bufSpec, true)},
		{"rw", lint.Analyze(rwSpec, true)},
	} {
		if deep := deepDiags(tc.res); len(deep) != 0 {
			t.Errorf("%s: deep analyzer flagged a shipped spec: %v", tc.name, deep)
		}
	}
}

// BenchmarkDeepAnalyze measures a full deep analysis of the bounded
// buffer problem spec (the shallow passes, graph build, producibility
// fixpoint, deadlock SCC, redundancy scan).
func BenchmarkDeepAnalyze(b *testing.B) {
	s, err := boundedbuf.ProblemSpec(boundedbuf.Workload{
		Producers: 2, Consumers: 2, ItemsPerProducer: 4, Capacity: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if deep := deepDiags(lint.Analyze(s, true)); len(deep) != 0 {
			b.Fatalf("unexpected deep diagnostics: %v", deep)
		}
	}
}
