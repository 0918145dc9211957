package legal_test

import (
	"math/rand"
	"testing"

	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/oracle"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
)

// checkAgainstOracle runs the legality check and asserts that it judges
// every restriction as the oracle does, and that every restriction
// violation carries a witness that falsifies its restriction.
func checkAgainstOracle(t *testing.T, name string, s *spec.Spec, c *core.Computation) legal.Result {
	t.Helper()
	res := legal.Check(s, c, legal.Options{})
	violated := map[string]bool{}
	for _, v := range res.Violations {
		if v.Kind != legal.RestrictionViolation {
			continue
		}
		key := v.Owner + "/" + v.Restriction
		violated[key] = true
		if v.Cx == nil {
			t.Fatalf("%s: restriction %s violated without a witness", name, key)
		}
		if err := v.Cx.Verify(); err != nil {
			t.Fatalf("%s: bogus witness for %s: %v", name, key, err)
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
	return res
}

func buildBoundedBuf(t *testing.T) (*spec.Spec, *core.Computation) {
	t.Helper()
	w := boundedbuf.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2, Capacity: 2}
	s, err := boundedbuf.ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	c, err := boundedbuf.BuildComputation(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
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

// TestCheckAgreesWithOracleOnShippedSpecs: the shipped problem specs
// accept their own computations, and on the empty computation, and the
// oracle agrees with every restriction verdict.
func TestCheckAgreesWithOracleOnShippedSpecs(t *testing.T) {
	empty, err := core.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	sBuf, cBuf := buildBoundedBuf(t)
	sRW, cRW := buildRW(t)
	for _, tc := range []struct {
		name string
		s    *spec.Spec
		c    *core.Computation
	}{
		{"boundedbuf", sBuf, cBuf},
		{"boundedbuf-empty", sBuf, empty},
		{"rw", sRW, cRW},
	} {
		if res := checkAgainstOracle(t, tc.name, tc.s, tc.c); !res.Legal() {
			t.Fatalf("%s judged illegal: %v", tc.name, res.Violations)
		}
	}
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

// TestCheckAgreesWithOracleOnRandomComputations: over 60 randomized
// computations per shipped problem spec, most of them illegal in varied
// ways, the check judges every restriction as the oracle does and
// backs every violation with a verified witness.
func TestCheckAgreesWithOracleOnRandomComputations(t *testing.T) {
	sBuf, _ := buildBoundedBuf(t)
	sRW, _ := buildRW(t)
	rng := rand.New(rand.NewSource(20260806))
	for _, tc := range []struct {
		name string
		s    *spec.Spec
	}{{"boundedbuf", sBuf}, {"rw", sRW}} {
		for i := 0; i < 60; i++ {
			c := randomComputation(t, tc.s, rng)
			checkAgainstOracle(t, tc.name, tc.s, c)
		}
	}
}

// wantLintError fails unless lint reports an error with the given code.
func wantLintError(t *testing.T, name string, s *spec.Spec, code lint.Code) {
	t.Helper()
	for _, d := range lint.Analyze(s, false).Errors() {
		if d.Code == code {
			return
		}
	}
	t.Fatalf("%s: lint reported no %s error", name, code)
}

// TestCheckRefutesPrereqCycleMutant: adding the reverse prerequisite
// Fetch -> Deposit alongside Deposit -> Fetch makes both classes
// statically doomed (GEM004); the dynamic check alone refutes the
// restrictions with verified witnesses.
func TestCheckRefutesPrereqCycleMutant(t *testing.T) {
	s, c := buildBoundedBuf(t)
	s.AddRestriction("mutant-fetch-first",
		logic.Prereq(core.Ref(boundedbuf.BufferElement, "Fetch"), core.Ref(boundedbuf.BufferElement, "Deposit")))
	s.AddRestriction("mutant-deposit-first",
		logic.Prereq(core.Ref(boundedbuf.BufferElement, "Deposit"), core.Ref(boundedbuf.BufferElement, "Fetch")))
	wantLintError(t, "cycle mutant", s, lint.CodePrereqCycle)
	if res := checkAgainstOracle(t, "cycle mutant", s, c); res.Legal() {
		t.Fatal("cycle mutant lints with errors but the dynamic check passed")
	}
}

// TestCheckRefutesAccessMutant: requiring a user event to directly
// enable an event inside the db group's non-port member violates the
// Section 4 access relation (GEM005); the dynamic check fails the same
// restriction because no such enable edge can exist in the computation.
func TestCheckRefutesAccessMutant(t *testing.T) {
	s, err := rw.ProblemSpec([]string{"u1", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	s.AddRestriction("mutant-direct-read",
		logic.Prereq(core.Ref("u1", "Read"), core.Ref("db.data", "Getval")))
	c, err := rw.BuildComputation(s, []rw.Transaction{
		{User: "u1", Write: false, After: -1},
		{User: "w1", Write: true, Value: 7, After: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLintError(t, "access mutant", s, lint.CodeAccessForbidden)
	if res := checkAgainstOracle(t, "access mutant", s, c); res.Legal() {
		t.Fatal("access mutant lints with errors but the dynamic check passed")
	}
}

// TestCheckAcceptsDanglingMutant: a restriction quantifying over an
// undeclared element is a lint error (GEM001) but holds dynamically (its
// domain is empty): a lint error does not make a computation illegal.
func TestCheckAcceptsDanglingMutant(t *testing.T) {
	s, c := buildBoundedBuf(t)
	s.AddRestriction("mutant-phantom",
		logic.ForAll{Var: "x", Ref: core.Ref("phantom", "Ev"), Body: logic.Occurred{Var: "x"}})
	wantLintError(t, "dangling mutant", s, lint.CodeDanglingElement)
	if res := checkAgainstOracle(t, "dangling mutant", s, c); !res.Legal() {
		t.Fatalf("dangling mutant holds dynamically but was judged illegal: %v", res.Violations)
	}
}
