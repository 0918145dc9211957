package oneslot

import (
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/explore"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/problems/boundedbuf"
	"gem/internal/verify"
)

func std() Workload { return Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2} }

func TestProblemSpecAlternation(t *testing.T) {
	s, err := ProblemSpec(std())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "OneSlotBuffer" {
		t.Errorf("name = %q", s.Name)
	}
	c, err := boundedbuf.BuildComputation(s, std().buffered())
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if !res.Legal() {
		t.Fatalf("alternating computation must be legal: %v", res.Error())
	}
}

func TestAlternationRefutesDoubleDeposit(t *testing.T) {
	s, err := ProblemSpec(Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// D D F F at the buffer element: violates alternation (and capacity).
	b := core.NewBuilder()
	for i := 1; i <= 2; i++ {
		p := b.Event(boundedbuf.ProducerName(i), "Produce", core.NewParams(core.P("item", core.Int(boundedbuf.ItemValue(i, 1)))))
		d := b.Event(boundedbuf.BufferElement, "Deposit", core.NewParams(core.P("item", core.Int(boundedbuf.ItemValue(i, 1)))))
		b.Enable(p, d)
	}
	for i := 1; i <= 2; i++ {
		f := b.Event(boundedbuf.BufferElement, "Fetch", core.NewParams(core.P("item", core.Int(boundedbuf.ItemValue(i, 1)))))
		cons := b.Event(boundedbuf.ConsumerName(1), "Consume", core.NewParams(core.P("item", core.Int(boundedbuf.ItemValue(i, 1)))))
		b.Enable(f, cons)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("consecutive deposits must be illegal in the one-slot buffer")
	}
	names := map[string]bool{}
	for _, v := range res.Violations {
		names[v.Restriction] = true
	}
	if !names["alternation"] {
		t.Errorf("want alternation violation, got %v", res.Violations)
	}
	if !names["capacity"] {
		t.Errorf("capacity (the equivalent formulation) must also fire, got %v", res.Violations)
	}
}

// TestSatAllLanguages runs the one-slot column of the E7 matrix.
func TestSatAllLanguages(t *testing.T) {
	w := std()
	problem, err := ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("monitor", func(t *testing.T) {
		runs, _, err := monitor.Explore(NewMonitorProgram(w), monitor.ExploreOptions{MaxRuns: 60000})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			if r.Deadlock {
				t.Fatalf("run %d deadlocked", i)
			}
			if res := verify.Check(problem, r.Comp, MonitorCorrespondence(), logic.CheckOptions{}); !res.Sat() {
				t.Fatalf("run %d fails sat: %v", i, res.Error())
			}
		}
		t.Logf("verified %d monitor computations", len(runs))
	})
	t.Run("csp", func(t *testing.T) {
		runs, _, err := csp.Explore(NewCSPProgram(w), csp.ExploreOptions{MaxRuns: 60000})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			if r.Deadlock {
				t.Fatalf("run %d deadlocked", i)
			}
			if res := verify.Check(problem, r.Comp, CSPCorrespondence(w), logic.CheckOptions{}); !res.Sat() {
				t.Fatalf("run %d fails sat: %v", i, res.Error())
			}
		}
		t.Logf("verified %d CSP computations", len(runs))
	})
	t.Run("ada", func(t *testing.T) {
		runs, _, err := explore.Collect(ada.ExploreStream, NewAdaProgram(w), ada.ExploreOptions{MaxRuns: 60000})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			if r.Deadlock {
				t.Fatalf("run %d deadlocked", i)
			}
			if res := verify.Check(problem, r.Comp, AdaCorrespondence(), logic.CheckOptions{}); !res.Sat() {
				t.Fatalf("run %d fails sat: %v", i, res.Error())
			}
		}
		t.Logf("verified %d ADA computations", len(runs))
	})
}

// TestAlternationEquivalentToCapacityOne: on computations satisfying the
// structural chains, alternation and the 0..1 capacity bound accept and
// reject together (checked on both a conforming and a violating sample).
func TestAlternationEquivalentToCapacityOne(t *testing.T) {
	w := std()
	s, err := ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	good, err := boundedbuf.BuildComputation(s, w.buffered())
	if err != nil {
		t.Fatal(err)
	}
	dep := core.Ref(boundedbuf.BufferElement, "Deposit")
	fet := core.Ref(boundedbuf.BufferElement, "Fetch")
	capacity := logic.Box{F: logic.CountDiff{A: dep, B: fet, Min: 0, Max: 1}}
	altOK := logic.Holds(Alternation(), good, logic.CheckOptions{}) == nil
	capOK := logic.Holds(capacity, good, logic.CheckOptions{}) == nil
	if !altOK || !capOK {
		t.Errorf("conforming computation: alternation=%v capacity=%v, want both true", altOK, capOK)
	}
}
