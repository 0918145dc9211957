package legal_test

import (
	"math/rand"
	"testing"

	"gem/internal/analyze"
	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/oracle"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
)

// fastPathVariants are the option sets whose verdicts and violation sets
// must all coincide with the plain dynamic check: the guard fast-path
// alone, and combined with the prelint short-circuit.
func fastPathVariants() []struct {
	name string
	opts legal.Options
} {
	return []struct {
		name string
		opts legal.Options
	}{
		{"fastpath", legal.Options{FastPath: true}},
		{"fastpath+prelint", legal.Options{FastPath: true, Prelint: true}},
	}
}

// checkFastPathAgreement asserts the guard fast-path is verdict-preserving:
// every variant produces the plain check's verdict and failing-restriction
// set exactly. The plain check itself must judge every restriction as
// the oracle does.
func checkFastPathAgreement(t *testing.T, name string, s *spec.Spec, c *core.Computation) legal.Result {
	t.Helper()
	plain := legal.Check(s, c, legal.Options{})
	violated := map[string]bool{}
	for _, v := range plain.Violations {
		if v.Kind == legal.RestrictionViolation {
			violated[v.Owner+"/"+v.Restriction] = true
		}
	}
	for _, r := range s.Restrictions() {
		holds, err := oracle.Holds(r.F, c)
		if err != nil {
			t.Fatalf("%s: oracle refused %s/%s: %v", name, r.Owner, r.Name, err)
		}
		if key := r.Owner + "/" + r.Name; holds == violated[key] {
			t.Fatalf("%s: restriction %s: check violated=%v, oracle holds=%v", name, key, violated[key], holds)
		}
	}
	pk := violationKeys(plain)
	for _, v := range fastPathVariants() {
		got := legal.Check(s, c, v.opts)
		if plain.Legal() != got.Legal() {
			t.Fatalf("%s/%s: fast path changed the verdict: plain legal=%v, got legal=%v",
				name, v.name, plain.Legal(), got.Legal())
		}
		gk := violationKeys(got)
		if len(pk) != len(gk) {
			t.Fatalf("%s/%s: fast path changed the violation set:\nplain: %v\ngot:   %v", name, v.name, pk, gk)
		}
		for i := range pk {
			if pk[i] != gk[i] {
				t.Fatalf("%s/%s: fast path changed the violation set:\nplain: %v\ngot:   %v", name, v.name, pk, gk)
			}
		}
	}
	return plain
}

func buildRW(t *testing.T) (*spec.Spec, *core.Computation) {
	t.Helper()
	s, err := rw.ProblemSpec([]string{"u1", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rw.BuildComputation(s, []rw.Transaction{
		{User: "u1", Write: false, After: -1},
		{User: "w1", Write: true, Value: 7, After: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestFastPathAgreesOnShippedSpecs: on the shipped problem specs (which
// must stay legal) every fast-path variant reproduces the plain verdict.
func TestFastPathAgreesOnShippedSpecs(t *testing.T) {
	s, c := buildBoundedBuf(t)
	if res := checkFastPathAgreement(t, "boundedbuf", s, c); !res.Legal() {
		t.Fatalf("boundedbuf judged illegal: %v", res.Violations)
	}
	s, c = buildRW(t)
	if res := checkFastPathAgreement(t, "rw", s, c); !res.Legal() {
		t.Fatalf("rw judged illegal: %v", res.Violations)
	}
}

// TestFastPathFiresOnEmptyComputation guards against the agreement tests
// being vacuously true: on the empty computation every emptiness guard
// holds, so the analyzer must supply at least one decisive, holding guard
// for the shipped specs — i.e. the fast path actually skips enumerations.
func TestFastPathFiresOnEmptyComputation(t *testing.T) {
	s, _ := buildBoundedBuf(t)
	c, err := core.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	res := analyze.ForSpec(s)
	for _, r := range s.Restrictions() {
		if g, ok := res.GuardFor(r.Owner, r.Name); ok && g.Decisive() && g.HoldsOn(c) {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no decisive guard holds on the empty computation; fast path never fires")
	}
	checkFastPathAgreement(t, "boundedbuf-empty", s, c)
}

// randomComputation builds a small random computation over the spec's
// declared class pairs (with an occasional phantom undeclared class),
// forward-only random enable edges (acyclic by construction), and the
// spec's thread labelling applied.
func randomComputation(t *testing.T, s *spec.Spec, rng *rand.Rand) *core.Computation {
	t.Helper()
	pairs := s.ClassPairs()
	b := core.NewBuilder()
	n := 3 + rng.Intn(6)
	ids := make([]core.EventID, 0, n)
	for i := 0; i < n; i++ {
		el, cl := "phantom", "Ev"
		if rng.Intn(10) != 0 {
			p := pairs[rng.Intn(len(pairs))]
			el, cl = p.Element, p.Class
		}
		ids = append(ids, b.Event(el, cl, core.Params{}))
	}
	for i := 1; i < len(ids); i++ {
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				b.Enable(ids[j], ids[i])
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(c, s.Threads()...)
	return c
}

// TestFastPathAgreesOnRandomComputations: the acceptance property — over
// ≥100 randomized computations per shipped problem spec, fast path on and
// off yield identical verdicts and violation sets (most of these are
// illegal in varied ways, exercising guards that fire and guards that
// don't).
func TestFastPathAgreesOnRandomComputations(t *testing.T) {
	sBuf, _ := buildBoundedBuf(t)
	sRW, _ := buildRW(t)
	rng := rand.New(rand.NewSource(20260806))
	for _, tc := range []struct {
		name string
		s    *spec.Spec
	}{{"boundedbuf", sBuf}, {"rw", sRW}} {
		for i := 0; i < 60; i++ {
			c := randomComputation(t, tc.s, rng)
			checkFastPathAgreement(t, tc.name, tc.s, c)
		}
	}
}
