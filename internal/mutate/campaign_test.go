package mutate

import (
	"bytes"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/store"
)

// runCampaign runs a small fixed campaign for the tests; seeds are
// rebuilt per run so spec-pointer memoization never leaks across runs.
func runCampaign(t *testing.T, par int, st *store.Store, n int) *Report {
	t.Helper()
	cfg := Config{N: n, Seed: 11, Parallelism: par, Store: st}
	if st != nil {
		cfg.Cache = st
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The campaign report must be a pure function of (seed, N): identical
// bytes from the sequential and the 8-worker run.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	rep1 := runCampaign(t, 1, nil, 150)
	rep8 := runCampaign(t, 8, nil, 150)
	var b1, b8 bytes.Buffer
	rep1.RenderVerbose(&b1)
	rep8.RenderVerbose(&b8)
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("-j1 and -j8 reports differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", b1.String(), b8.String())
	}
	if rep1.Unique == 0 || rep1.Illegal == 0 {
		t.Fatalf("degenerate campaign: unique=%d illegal=%d", rep1.Unique, rep1.Illegal)
	}
}

// Production must agree with the oracle on every restriction of every
// mutant, every witness must pass Verify, and every failure must shrink —
// zero findings on a healthy checker.
func TestCampaignEngineAgreement(t *testing.T) {
	rep := runCampaign(t, 4, nil, 200)
	for _, f := range rep.Findings {
		t.Errorf("finding on mutant %d [%s]: %s: %s", f.Index, f.Op, f.Kind, f.Detail)
	}
	shrunk := 0
	for _, r := range rep.Results {
		if r.Legal {
			continue
		}
		if r.Shrunk == nil {
			t.Errorf("illegal mutant %d [%s] has no shrunk witness", r.Mutant.Index, r.Mutant.Op)
			continue
		}
		shrunk++
		if r.Shrunk.Events > r.Shrunk.OrigEvents {
			t.Errorf("mutant %d: shrink grew the computation %d -> %d",
				r.Mutant.Index, r.Shrunk.OrigEvents, r.Shrunk.Events)
		}
		if r.Shrunk.Kind == legal.RestrictionViolation {
			if r.Shrunk.Cx == nil {
				t.Errorf("mutant %d: restriction failure without counterexample", r.Mutant.Index)
			} else if err := r.Shrunk.Cx.Verify(); err != nil {
				t.Errorf("mutant %d: shrunk witness fails Verify: %v", r.Mutant.Index, err)
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("campaign produced no shrunk witnesses")
	}
}

// Shrinking is a fixpoint: re-shrinking an already-minimal witness keeps
// the exact same computation (deterministic chunking + 1-minimality).
func TestShrinkIdempotent(t *testing.T) {
	rep := runCampaign(t, 4, nil, 120)
	checked := 0
	for _, r := range rep.Results {
		if r.Shrunk == nil {
			continue
		}
		v := legal.Violation{
			Kind:        r.Shrunk.Kind,
			Owner:       r.Shrunk.Owner,
			Restriction: r.Shrunk.Restriction,
		}
		again, err := Shrink(r.Mutant.Spec, r.Shrunk.Comp, v, logic.CheckOptions{})
		if err != nil {
			t.Errorf("mutant %d: re-shrink failed: %v", r.Mutant.Index, err)
			continue
		}
		if again.Events != r.Shrunk.Events {
			t.Errorf("mutant %d: re-shrink changed size %d -> %d",
				r.Mutant.Index, r.Shrunk.Events, again.Events)
		}
		if core.Fingerprint(again.Comp) != core.Fingerprint(r.Shrunk.Comp) {
			t.Errorf("mutant %d: re-shrink changed the computation", r.Mutant.Index)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no shrunk witnesses to re-shrink")
	}
}

// Corpus round trip: a campaign persisted through the store replays with
// production agreeing with the oracle, and the warm store serves hits.
func TestCampaignCorpusReplay(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	rep := runCampaign(t, 4, st, 150)
	persisted := 0
	for _, r := range rep.Results {
		if r.CorpusKey != "" {
			persisted++
		}
	}
	if persisted == 0 {
		t.Fatal("campaign persisted no corpus entries")
	}
	entries, err := Replay(st, "gemmut", st)
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("replay found an empty corpus")
	}
	if st.Stats().Hits == 0 {
		t.Fatal("replay over a warm store recorded no hits")
	}

	// A warm rerun of the identical campaign must reproduce the identical
	// report while serving verdicts from the store.
	before := st.Stats().Hits
	rep2 := runCampaign(t, 2, st, 150)
	var b1, b2 bytes.Buffer
	rep.Render(&b1)
	rep2.Render(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("warm rerun changed the report:\n--- cold ---\n%s\n--- warm ---\n%s", b1.String(), b2.String())
	}
	if st.Stats().Hits <= before {
		t.Fatal("warm rerun recorded no additional store hits")
	}
}

// TestBenchmarkCampaign runs the campaign the repository benchmark runs,
// seed 11 with 2,000 mutants: production must agree with the oracle on
// every restriction of every unique mutant, and the campaign's counts
// must not move.
func TestBenchmarkCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2,000-mutant campaign; skipped in -short mode")
	}
	rep, err := Run(Config{N: 2000, Seed: 11, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("finding on mutant %d [%s]: %s: %s", f.Index, f.Op, f.Kind, f.Detail)
	}
	shrunk := 0
	for _, r := range rep.Results {
		if r.Shrunk != nil {
			shrunk++
		}
	}
	if rep.Unique != 583 || rep.Legal != 348 || rep.Illegal != 235 || shrunk != 235 {
		t.Errorf("unique=%d legal=%d illegal=%d shrunk=%d, want 583, 348, 235 and 235",
			rep.Unique, rep.Legal, rep.Illegal, shrunk)
	}
}

// TestAgainstOracleReportsGaps: a production verdict the oracle does not
// share is an oracle-disagreement naming the restriction and both
// verdicts, and a restriction the oracle cannot judge is oracle-refused.
func TestAgainstOracleReportsGaps(t *testing.T) {
	sp, err := gemlang.Parse(`SPEC S

ELEMENT E
  EVENTS
    A
END

RESTRICTION "seen": ((FORALL a: E.A) [] (occurred(a))) ;
RESTRICTION "loose": ((FORALL a: E.A) occurred(a)) ;
`)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder()
	b.Event("E", "A", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Both restrictions fail on the one-event computation: □occurred(a)
	// is false at ∅, and so is the invariant occurred(a).
	res := legal.Check(sp, c, legal.Options{})
	if gaps := againstOracle(sp, c, res); len(gaps) != 0 {
		t.Fatalf("production and oracle agree, got %v", gaps)
	}
	res.Violations = res.Violations[:1]
	gaps := againstOracle(sp, c, res)
	if len(gaps) != 1 || gaps[0].kind != "oracle-disagreement" ||
		!strings.Contains(gaps[0].detail, "S/loose: production holds, oracle violated") {
		t.Fatalf("dropped violation: got %v", gaps)
	}
}
