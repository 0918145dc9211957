package gofront_test

import (
	"path/filepath"
	"testing"

	"gem/internal/core"
	"gem/internal/gofront"
	"gem/internal/legal"
	"gem/internal/oracle"
	"gem/internal/spec"
)

// requireOracleAgrees fails t on each restriction of sp that the oracle
// judges on c differently from the check's result res.
func requireOracleAgrees(t *testing.T, name string, sp *spec.Spec, c *core.Computation, res legal.Result) {
	t.Helper()
	violated := map[string]bool{}
	for _, v := range res.Violations {
		violated[v.Owner+"/"+v.Restriction] = true
		if v.Cx != nil {
			if err := v.Cx.Verify(); err != nil {
				t.Errorf("%s: bogus counterexample for %s: %v", name, v.Restriction, err)
			}
		}
	}
	for _, r := range sp.Restrictions() {
		key := r.Owner + "/" + r.Name
		holds, err := oracle.Holds(r.F, c)
		if err != nil {
			t.Fatalf("%s: oracle on %s: %v", name, key, err)
		}
		if holds == violated[key] {
			t.Errorf("%s: restriction %s: check violated=%v, oracle holds=%v", name, key, violated[key], holds)
		}
	}
}

// TestExtractedModelsLegalAllEngines: every extracted model — including
// the defective ones — must be legal with respect to its own extracted
// spec, and the oracle must judge each restriction as the check does.
// Defects surface as GEM013–GEM016 diagnostics, never as legality
// failures, because restrictions are gated off whenever their pairing is
// incomplete or an enable edge had to be dropped.
func TestExtractedModelsLegalAllEngines(t *testing.T) {
	for _, dir := range fixtureDirs(t) {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			res, err := gofront.AnalyzeDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Models) == 0 {
				t.Fatalf("fixture %s produced no models", dir)
			}
			for _, m := range res.Models {
				if err := m.Spec.Validate(); err != nil {
					t.Fatalf("%s: invalid spec: %v", m.Name, err)
				}
				r := legal.Check(m.Spec, m.Comp, legal.Options{})
				if !r.Legal() {
					t.Errorf("%s: not legal: %v", m.Name, r.Error())
				}
				requireOracleAgrees(t, m.Name, m.Spec, m.Comp, r)
			}
		})
	}
}

// rebuildWithoutEdge reconstructs a model's computation minus one enable
// edge, using the exported Ops/Gors/Enables surface.
func rebuildWithoutEdge(t *testing.T, m *gofront.Model, drop [2]core.EventID) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	for _, id := range m.EventOf {
		ev := m.Comp.Event(id)
		b.Event(ev.Element(), ev.Class(), core.Params{})
	}
	dropped := false
	for _, e := range m.Enables {
		if e == drop && !dropped {
			dropped = true
			continue
		}
		b.Enable(e[0], e[1])
	}
	if !dropped {
		t.Fatalf("edge %v not present in %s", drop, m.Name)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineAgreementOnMutatedComputation drops the send→recv pairing
// edge from the clean rendezvous model: the rendezvous restriction must
// now fail, the oracle must agree, and the counterexample must be a
// genuine falsifying witness (Counterexample.Verify).
func TestEngineAgreementOnMutatedComputation(t *testing.T) {
	res, err := gofront.AnalyzeDir(filepath.Join("testdata", "src", "clean_gem013_paired"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("want 1 model, got %d", len(res.Models))
	}
	m := res.Models[0]
	if len(m.Enables) == 0 {
		t.Fatal("model has no enable edges")
	}
	// The last accepted edge is the channel pairing (spawn edges come
	// first in the deterministic candidate order).
	mutated := rebuildWithoutEdge(t, m, m.Enables[len(m.Enables)-1])

	r := legal.Check(m.Spec, mutated, legal.Options{})
	found := false
	for _, v := range r.Violations {
		if v.Restriction == "rendezvous_ch" {
			found = true
		}
	}
	if !found {
		t.Errorf("rendezvous_ch did not fail; violations: %v", r.Violations)
	}
	requireOracleAgrees(t, m.Name, m.Spec, mutated, r)
}
