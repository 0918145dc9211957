package store

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

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
// reduction, the lattice engine, and sequence enumeration (via temporal
// disjunctions and ∃ with temporal bodies).
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
	return openStore(t, t.TempDir(), ReadWrite)
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
		got, _, ok := s2.Lookup(context.Background(), f, c2)
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

// segmentFiles lists the segment files of the store rooted at dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, layoutDir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// corruptEveryFrame rewrites every segment with each of its frames
// either cut to its first half or with the byte in its middle flipped,
// and returns how many frames it corrupted.
func corruptEveryFrame(t *testing.T, dir string, truncate bool) int {
	t.Helper()
	n := 0
	for _, path := range segmentFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		scanSegment(data, func(_ recordID, off, size int) {
			frame := data[off : off+size]
			if truncate {
				frame = frame[:size/2]
			} else {
				frame[size/2] ^= 0xff
			}
			out = append(out, frame...)
			n++
		})
		if err := os.WriteFile(path, out, 0o666); err != nil {
			t.Fatal(err)
		}
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
			if n := corruptEveryFrame(t, dir, truncate); n == 0 {
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
	payload, ok := s.read(verdictKey(fail, c), kindVerdict)
	if !ok {
		t.Fatal("FALSE's verdict was not stored")
	}
	s.write(verdictKey(other, c), kindVerdict, payload)
	if _, _, ok := s.Lookup(context.Background(), other, c); ok {
		t.Fatal("verdict for a different formula was served")
	}
}

// Concurrent writers and readers on one store must be race-free and
// must never corrupt each other (ci.sh runs this under -race). A second
// handle then reads the first one's segment, made stale, from as many
// goroutines: each record it hits is copied forward exactly once.
func TestConcurrentStoreTraffic(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, ReadWrite)
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
	traffic := func(s *Store) {
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
	traffic(s)
	records := int64(len(s.index))
	backdateSegments(t, dir, 2*time.Hour)
	s2 := openStore(t, dir, ReadWrite)
	traffic(s2)
	if st := s2.Stats(); st.Misses != 0 || st.Writes != 0 {
		t.Errorf("second handle: %+v; want hits only", st)
	}
	var copied int64
	if s2.own != nil {
		copied = s2.own.records
	}
	if copied != records {
		t.Errorf("second handle copied %d records forward, want each of the %d once", copied, records)
	}
}

// Trim must delete every segment down to a budget nothing fits in, the
// handle's own included, and count each of their records as evicted;
// evicted records miss, and a later write starts a new segment.
func TestTrimEvicts(t *testing.T) {
	s := rwStore(t)
	c := randComp(rand.New(rand.NewSource(5)), 6)
	rng := rand.New(rand.NewSource(6))
	formulas := make([]logic.Formula, 10)
	for i := range formulas {
		formulas[i] = randFormula(rng)
		logic.Holds(formulas[i], c, logic.CheckOptions{Cache: s})
	}
	written := s.Stats().Writes
	if written == 0 {
		t.Fatal("no records written")
	}
	dir := filepath.Dir(s.dir)
	s.Trim(1) // 1-byte budget: everything must go
	if got := s.Stats().Evictions; got != written {
		t.Errorf("Trim evicted %d records, want all %d written", got, written)
	}
	if left := segmentFiles(t, dir); len(left) != 0 {
		t.Errorf("%d segments left after Trim(1)", len(left))
	}
	for _, f := range formulas {
		if _, _, ok := s.Lookup(context.Background(), f, c); ok {
			t.Fatalf("evicted verdict of %s still served", f)
		}
	}
	s.Store(logic.VerdictKey(verdictKey(formulas[0], c)), nil)
	if left := segmentFiles(t, dir); len(left) != 1 {
		t.Errorf("a write after Trim left %d segments, want 1", len(left))
	}
}

// TestLookupKeysTheWriteBehind checks that a miss hands back the key the
// verdict belongs under, so Holds' write-behind derives none of its own:
// a verdict stored under it is the one the next lookup serves.
func TestLookupKeysTheWriteBehind(t *testing.T) {
	s := rwStore(t)
	c := randComp(rand.New(rand.NewSource(3)), 6)
	f := logic.FalseF{}
	_, key, ok := s.Lookup(context.Background(), f, c)
	if ok {
		t.Fatal("an empty store hit")
	}
	if key != logic.VerdictKey(verdictKey(f, c)) {
		t.Fatal("a miss returned another key than the verdict's")
	}
	cx := logic.Holds(f, c, logic.CheckOptions{})
	s.Store(key, cx)
	got, again, ok := s.Lookup(context.Background(), f, c)
	if !ok || again != key || cxString(got) != cxString(cx) {
		t.Fatalf("the stored verdict was not served under its key: hit %v, %s", ok, cxString(got))
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
	if _, _, ok := s.Lookup(context.Background(), logic.TrueF{}, c); ok {
		t.Error("nil store hit")
	}
	s.Store(logic.VerdictKey{}, nil)
	s.Trim(0)
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store counted traffic: %+v", st)
	}
}

// A record's kind is part of its identity, so retiring a kind must not
// renumber the others: a renumbered kind would orphan every record of
// it in existing stores.
func TestRecordKindsKeepTheirNumbers(t *testing.T) {
	if kindVerdict != 1 || kindSat != 4 || kindCorpus != 5 || kindManifest != 6 {
		t.Errorf("kinds verdict/sat/corpus/manifest = %d/%d/%d/%d, want 1/4/5/6",
			kindVerdict, kindSat, kindCorpus, kindManifest)
	}
}
