package mutate

import (
	"errors"
	"testing"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/legal"
	"gem/internal/thread"
)

// The central operator property: for every campaign index, Generate
// either rejects with the typed error or produces a mutant whose spec
// still renders and re-parses through gemlang and whose computation is
// structurally sound — never a panic, never an unrenderable formula.
func TestOperatorProperty(t *testing.T) {
	seeds, err := DefaultSeeds()
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[Op]int)
	rejected := make(map[Op]int)
	for i := 0; i < 600; i++ {
		m, err := Generate(seeds, 42, i)
		if err != nil {
			var rej *Rejected
			if !errors.As(err, &rej) {
				t.Fatalf("index %d: non-typed error %v", i, err)
			}
			if rej.Reason == "" {
				t.Fatalf("index %d: rejection without reason", i)
			}
			rejected[rej.Op]++
			continue
		}
		covered[m.Op]++
		if m.Provenance == "" {
			t.Fatalf("index %d: mutant without provenance", i)
		}
		// The mutant spec must render and re-parse: the corpus persists
		// specs as gemlang source.
		src := gemlang.Format(m.Spec)
		if _, perr := gemlang.Parse(src); perr != nil {
			t.Fatalf("index %d (%s, %s): mutant spec does not re-parse: %v\n%s",
				i, m.Op, m.Provenance, perr, src)
		}
		// The computation built (Build validated acyclicity); its events
		// must be intact and its thread labels re-derivable.
		if m.Comp.NumEvents() == 0 {
			t.Fatalf("index %d (%s): mutant computation has no events", i, m.Op)
		}
		for id := 0; id < m.Comp.NumEvents(); id++ {
			if e := m.Comp.Event(core.EventID(id)); e.Element() == "" || e.Class() == "" {
				t.Fatalf("index %d (%s): event %d lost element/class", i, m.Op, id)
			}
		}
	}
	for _, op := range AllOps {
		if covered[op]+rejected[op] == 0 {
			t.Errorf("operator %s never drawn in 600 indices", op)
		}
	}
	// The sampler must actually produce mutants for the spec-side and the
	// main computation-side operators (some, like widen-port, may only
	// ever fire on one seed).
	for _, op := range []Op{OpDropRestriction, OpNegateNode, OpWeakenNode, OpDropEnable, OpDropEvent, OpPerturbParam} {
		if covered[op] == 0 {
			t.Errorf("operator %s produced no mutants in 600 indices", op)
		}
	}
}

// Mutant i is a pure function of (campaign seed, i): regenerating the
// same index yields the identical mutant, and different campaign seeds
// diverge.
func TestGenerateDeterministic(t *testing.T) {
	seeds, err := DefaultSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a, errA := Generate(seeds, 7, i)
		b, errB := Generate(seeds, 7, i)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("index %d: verdict differs across regeneration", i)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("index %d: rejection differs: %v vs %v", i, errA, errB)
			}
			continue
		}
		if a.Op != b.Op || a.Provenance != b.Provenance || a.Seed != b.Seed {
			t.Fatalf("index %d: mutant differs: %+v vs %+v", i, a, b)
		}
		if gemlang.HashSpec(a.Spec) != gemlang.HashSpec(b.Spec) {
			t.Fatalf("index %d: spec hash differs", i)
		}
		if core.Fingerprint(a.Comp) != core.Fingerprint(b.Comp) {
			t.Fatalf("index %d: computation fingerprint differs", i)
		}
	}
}

// The default seeds must be legal under the default engine: mutation
// measures the checker's reaction to *deviations*, so the baseline must
// be violation-free.
func TestDefaultSeedsLegal(t *testing.T) {
	seeds, err := DefaultSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range seeds {
		if len(sd.Comps) == 0 {
			t.Fatalf("seed %s has no computations", sd.Name)
		}
		for ci, c := range sd.Comps {
			res := legal.Check(sd.Spec, c, legal.Options{})
			if !res.Legal() {
				t.Errorf("seed %s comp %d is illegal: %v", sd.Name, ci, res.Error())
			}
		}
	}
}

// The codec must round-trip every seed computation bit-for-bit
// (fingerprints include params, thread labels, and the enable relation),
// and malformed bytes must error, never panic.
func TestComputationCodecRoundTrip(t *testing.T) {
	seeds, err := DefaultSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range seeds {
		for ci, c := range sd.Comps {
			enc := EncodeComputation(c)
			dec, err := DecodeComputation(enc)
			if err != nil {
				t.Fatalf("seed %s comp %d: decode: %v", sd.Name, ci, err)
			}
			if core.Fingerprint(dec) != core.Fingerprint(c) {
				t.Fatalf("seed %s comp %d: fingerprint changed across codec", sd.Name, ci)
			}
			// Labels came from the encoding, not from re-applying threads:
			// they must still validate against the spec's thread types.
			if err := thread.Validate(dec, sd.Spec.Threads()...); err != nil {
				t.Fatalf("seed %s comp %d: decoded labels invalid: %v", sd.Name, ci, err)
			}
			// Truncations and bit flips error cleanly.
			for cut := 0; cut < len(enc); cut += 3 {
				if _, err := DecodeComputation(enc[:cut]); err == nil {
					t.Fatalf("seed %s comp %d: truncation at %d decoded", sd.Name, ci, cut)
				}
			}
			for pos := 0; pos < len(enc); pos += 5 {
				bad := append([]byte(nil), enc...)
				bad[pos] ^= 0x80
				dec, err := DecodeComputation(bad) // must not panic
				_ = dec
				_ = err
			}
		}
	}
}
