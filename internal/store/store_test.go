package store

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/verify"
)

// The store must satisfy the two engine-layer cache interfaces it
// claims to implement structurally.
var (
	_ logic.VerdictCache = (*Store)(nil)
	_ verify.SatCache    = (*Store)(nil)
)

// randComp builds a random computation over elements A-C and classes
// X/Y (mirroring the logic package's agreement-test generator, which is
// unexported there).
func randComp(rng *rand.Rand, maxN int) *core.Computation {
	n := 2 + rng.Intn(maxN-1)
	b := core.NewBuilder()
	ids := make([]core.EventID, n)
	for i := 0; i < n; i++ {
		elem := string(rune('A' + rng.Intn(3)))
		class := string(rune('X' + rng.Intn(2)))
		ids[i] = b.Event(elem, class, core.NewParams(core.P("v", core.Int(int64(rng.Intn(3))))))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.Enable(ids[i], ids[j])
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// randFormula builds a random restriction over the X/Y classes with
// enough shape diversity to hit every engine stage: the □-invariant
// reduction, the pair reduction, the lattice engine, and the sequence
// cascade (via temporal disjunctions and ∃ with temporal bodies).
func randFormula(rng *rand.Rand) logic.Formula {
	ref := core.Ref("", "X")
	if rng.Intn(2) == 0 {
		ref = core.Ref("", "Y")
	}
	atom := func(v string) logic.Formula {
		switch rng.Intn(3) {
		case 0:
			return logic.Occurred{Var: v}
		case 1:
			return logic.New{Var: v}
		default:
			return logic.Potential{Var: v}
		}
	}
	imm := func() logic.Formula {
		return logic.ForAll{Var: "e", Ref: ref, Body: atom("e")}
	}
	switch rng.Intn(8) {
	case 0:
		return logic.Box{F: imm()}
	case 1:
		return logic.Diamond{F: imm()}
	case 2:
		return logic.Box{F: logic.Implies{If: imm(), Then: logic.Box{F: imm()}}}
	case 3:
		return logic.Not{F: logic.Box{F: imm()}}
	case 4:
		return logic.And{logic.Box{F: imm()}, logic.Diamond{F: imm()}}
	case 5:
		return logic.Or{logic.Box{F: imm()}, logic.Diamond{F: imm()}}
	case 6:
		return logic.Exists{Var: "z", Ref: ref, Body: logic.Box{F: atom("z")}}
	default:
		return imm() // non-temporal invariant
	}
}

func rwStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cxString(cx *logic.Counterexample) string {
	if cx == nil {
		return "<pass>"
	}
	return cx.Error()
}

// TestAgreementCacheOnOff is the acceptance agreement suite: across 120
// randomized computations, verdicts (and their rendered witnesses) with
// the cache enabled — both the writing first pass and the hitting second
// pass — are identical to cache-off evaluation.
func TestAgreementCacheOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := rwStore(t)
	for i := 0; i < 120; i++ {
		c := randComp(rng, 6)
		f := randFormula(rng)
		want := logic.Holds(f, c, logic.CheckOptions{})
		cold := logic.Holds(f, c, logic.CheckOptions{Cache: s})
		if cxString(cold) != cxString(want) {
			t.Fatalf("case %d: cold cached verdict differs:\n  cache-off: %s\n  cache-on:  %s\n  formula %s on %s",
				i, cxString(want), cxString(cold), f, c)
		}
		// The second pass must serve the on-disk record (the verdict
		// layer has no in-process memoization) and agree again.
		warm := logic.Holds(f, c, logic.CheckOptions{Cache: s})
		if cxString(warm) != cxString(want) {
			t.Fatalf("case %d: warm cached verdict differs:\n  cache-off: %s\n  cache-on:  %s", i, cxString(want), cxString(warm))
		}
		if warm != nil {
			if err := warm.Verify(); err != nil {
				t.Fatalf("case %d: rehydrated counterexample does not falsify: %v", i, err)
			}
		}
	}
	if st := s.Stats(); st.Hits == 0 || st.Writes == 0 {
		t.Errorf("agreement run exercised no cache traffic: %+v", st)
	}
}

// A warm lookup in a fresh process (simulated by a fresh computation
// with the same fingerprint and a fresh store handle) must hit and
// render the identical counterexample.
func TestVerdictRoundTripAcrossHandles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s1, err := Open(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		seed := int64(i)
		mk := func() *core.Computation { return randComp(rand.New(rand.NewSource(seed)), 6) }
		f := randFormula(rng)
		c1 := mk()
		want := logic.Holds(f, c1, logic.CheckOptions{Cache: s1})

		s2, err := Open(dir, ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		c2 := mk()
		if core.Fingerprint(c1) != core.Fingerprint(c2) {
			t.Fatal("identical builds fingerprint differently")
		}
		got, ok := s2.Lookup(context.Background(), f, c2, logic.EngineAuto)
		if !ok {
			t.Fatalf("case %d: fresh handle missed a just-written verdict", i)
		}
		if cxString(got) != cxString(want) {
			t.Fatalf("case %d: rehydrated verdict differs:\n  want %s\n  got  %s", i, cxString(want), cxString(got))
		}
		if s2.Stats().Writes != 0 {
			t.Fatal("read-only handle wrote")
		}
	}
}

// corruptEveryFile flips a byte in (or truncates) every record file.
func corruptEveryFile(t *testing.T, dir string, truncate bool) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if truncate {
			data = data[:len(data)/2]
		} else if len(data) > 0 {
			data[len(data)/2] ^= 0xff
		}
		n++
		return os.WriteFile(path, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Corrupted and truncated records must decode to misses — counted as
// misses — and recomputation must restore the identical verdicts.
func TestCorruptRecordsDegradeToMiss(t *testing.T) {
	for _, truncate := range []bool{false, true} {
		name := "flipped"
		if truncate {
			name = "truncated"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			dir := t.TempDir()
			s, err := Open(dir, ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			type tc struct {
				c *core.Computation
				f logic.Formula
				w string
			}
			var cases []tc
			for i := 0; i < 20; i++ {
				c := randComp(rng, 6)
				f := randFormula(rng)
				cases = append(cases, tc{c, f, cxString(logic.Holds(f, c, logic.CheckOptions{Cache: s}))})
			}
			if n := corruptEveryFile(t, dir, truncate); n == 0 {
				t.Fatal("no records written")
			}
			s2, err := Open(dir, ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			for i, tt := range cases {
				got := logic.Holds(tt.f, tt.c, logic.CheckOptions{Cache: s2})
				if cxString(got) != tt.w {
					t.Fatalf("case %d: corrupted cache changed the verdict: want %s, got %s", i, tt.w, cxString(got))
				}
			}
			if st := s2.Stats(); st.Misses == 0 {
				t.Error("corrupted records were not counted as misses")
			} else if st.Hits != 0 {
				t.Errorf("corrupted records produced %d hits", st.Hits)
			}
		})
	}
}

// A verdict recorded for one formula must never be served for another
// (the formula-hash match in decodeVerdict), even under a manufactured
// key collision: a record whose payload names an unrelated formula is a
// miss.
func TestVerdictFormulaMismatchIsMiss(t *testing.T) {
	s := rwStore(t)
	c := randComp(rand.New(rand.NewSource(9)), 5)
	fail := logic.FalseF{}
	if cx := logic.Holds(fail, c, logic.CheckOptions{Cache: s}); cx == nil {
		t.Fatal("FALSE held")
	}
	// Graft the FALSE record onto TRUE's key: lookup must reject it.
	other := logic.TrueF{}
	data, err := os.ReadFile(s.path(verdictKey(fail, c, logic.EngineAuto), kindVerdict))
	if err != nil {
		t.Fatal(err)
	}
	target := s.path(verdictKey(other, c, logic.EngineAuto), kindVerdict)
	if err := os.MkdirAll(filepath.Dir(target), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(context.Background(), other, c, logic.EngineAuto); ok {
		t.Fatal("verdict for a different formula was served")
	}
}

// Concurrent writers and readers on one store must be race-free and
// must never corrupt each other (ci.sh runs this under -race).
func TestConcurrentStoreTraffic(t *testing.T) {
	s := rwStore(t)
	rng := rand.New(rand.NewSource(11))
	type work struct {
		c *core.Computation
		f logic.Formula
		w string
	}
	var items []work
	for i := 0; i < 8; i++ {
		c := randComp(rng, 5)
		f := randFormula(rng)
		items = append(items, work{c, f, cxString(logic.Holds(f, c, logic.CheckOptions{}))})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, it := range items {
					if got := logic.Holds(it.f, it.c, logic.CheckOptions{Cache: s}); cxString(got) != it.w {
						t.Errorf("concurrent cached verdict differs: want %s, got %s", it.w, cxString(got))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Trim must evict oldest-first down to the budget and count evictions.
func TestTrimEvicts(t *testing.T) {
	s := rwStore(t)
	c := randComp(rand.New(rand.NewSource(5)), 6)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		logic.Holds(randFormula(rng), c, logic.CheckOptions{Cache: s})
	}
	if s.Stats().Writes == 0 {
		t.Fatal("no records written")
	}
	s.Trim(1) // 1-byte budget: everything must go
	if s.Stats().Evictions == 0 {
		t.Error("Trim evicted nothing")
	}
	left := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			left++
		}
		return nil
	})
	if left != 0 {
		t.Errorf("%d records left after Trim(1)", left)
	}
}

// Nil stores (Open in Off mode) must flow through every method as
// misses and no-ops.
func TestNilStoreIsInert(t *testing.T) {
	s, err := Open("", Off)
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatal("Off mode returned a non-nil store")
	}
	c := randComp(rand.New(rand.NewSource(2)), 4)
	if _, ok := s.Lookup(context.Background(), logic.TrueF{}, c, logic.EngineAuto); ok {
		t.Error("nil store hit")
	}
	s.Store(logic.TrueF{}, c, logic.EngineAuto, nil)
	s.Trim(0)
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store counted traffic: %+v", st)
	}
}

// Record kinds name the record files, so retiring a kind must not
// renumber the others: a renumbered kind would orphan every record of
// it in existing stores.
func TestRecordKindsKeepTheirNumbers(t *testing.T) {
	if kindVerdict != 1 || kindSat != 4 || kindCorpus != 5 || kindManifest != 6 {
		t.Errorf("kinds verdict/sat/corpus/manifest = %d/%d/%d/%d, want 1/4/5/6",
			kindVerdict, kindSat, kindCorpus, kindManifest)
	}
}
