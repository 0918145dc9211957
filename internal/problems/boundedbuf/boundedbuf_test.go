package boundedbuf

import (
	"strings"
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/explore"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/verify"
)

func stdWorkload() Workload {
	return Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 1}
}

func deepWorkload() Workload {
	return Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 3, Capacity: 2}
}

// --- E6: the problem specification itself ------------------------------

func TestProblemSpecAcceptsFIFOComputation(t *testing.T) {
	for _, w := range []Workload{stdWorkload(), deepWorkload(), {Producers: 2, Consumers: 2, ItemsPerProducer: 2, Capacity: 2}} {
		s, err := ProblemSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		c, err := BuildComputation(s, w)
		if err != nil {
			t.Fatal(err)
		}
		res := legal.Check(s, c, legal.Options{})
		if !res.Legal() {
			t.Fatalf("FIFO computation must be legal for %+v: %v\n%s", w, res.Error(), c)
		}
	}
}

func TestProblemSpecRefutesOverflow(t *testing.T) {
	w := stdWorkload() // capacity 1
	s, err := ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	// Two deposits before any fetch: #Deposit - #Fetch reaches 2 > 1.
	b := core.NewBuilder()
	for i := 1; i <= 2; i++ {
		p := b.Event(ProducerName(i), "Produce", core.NewParams(core.P("item", core.Int(ItemValue(i, 1)))))
		d := b.Event(BufferElement, "Deposit", core.NewParams(core.P("item", core.Int(ItemValue(i, 1)))))
		b.Enable(p, d)
	}
	for i := 1; i <= 2; i++ {
		f := b.Event(BufferElement, "Fetch", core.NewParams(core.P("item", core.Int(ItemValue(i, 1)))))
		cons := b.Event(ConsumerName(1), "Consume", core.NewParams(core.P("item", core.Int(ItemValue(i, 1)))))
		b.Enable(f, cons)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("overflowing the one-slot buffer must be illegal")
	}
	found := false
	for _, v := range res.Violations {
		if v.Restriction == "capacity" {
			found = true
		}
	}
	if !found {
		t.Errorf("want capacity violation, got %v", res.Violations)
	}
}

func TestProblemSpecRefutesReordering(t *testing.T) {
	w := stdWorkload()
	s, err := ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	// Deposit 11 then 21, but fetch 21 first: FIFO violated.
	b := core.NewBuilder()
	p1 := b.Event(ProducerName(1), "Produce", core.NewParams(core.P("item", core.Int(11))))
	d1 := b.Event(BufferElement, "Deposit", core.NewParams(core.P("item", core.Int(11))))
	b.Enable(p1, d1)
	f1 := b.Event(BufferElement, "Fetch", core.NewParams(core.P("item", core.Int(21))))
	c1 := b.Event(ConsumerName(1), "Consume", core.NewParams(core.P("item", core.Int(21))))
	b.Enable(f1, c1)
	p2 := b.Event(ProducerName(2), "Produce", core.NewParams(core.P("item", core.Int(21))))
	d2 := b.Event(BufferElement, "Deposit", core.NewParams(core.P("item", core.Int(21))))
	b.Enable(p2, d2)
	f2 := b.Event(BufferElement, "Fetch", core.NewParams(core.P("item", core.Int(11))))
	c2 := b.Event(ConsumerName(1), "Consume", core.NewParams(core.P("item", core.Int(11))))
	b.Enable(f2, c2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("out-of-order delivery must be illegal")
	}
	found := false
	for _, v := range res.Violations {
		if v.Restriction == "fifo" {
			found = true
		}
	}
	if !found {
		t.Errorf("want fifo violation, got %v", res.Violations)
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := Workload{Producers: 3, Consumers: 2, ItemsPerProducer: 1, Capacity: 1}
	if _, err := ProblemSpec(bad); err == nil || !strings.Contains(err.Error(), "divide") {
		t.Errorf("indivisible workload must be rejected: %v", err)
	}
	if _, err := ProblemSpec(Workload{}); err == nil {
		t.Error("zero workload must be rejected")
	}
}

// --- E7: sat across the three languages --------------------------------

func TestSatMonitor(t *testing.T) {
	for _, w := range []Workload{stdWorkload(), deepWorkload()} {
		problem, err := ProblemSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		prog := NewMonitorProgram(w)
		runs, truncated, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: 60000})
		if err != nil {
			t.Fatal(err)
		}
		if truncated || len(runs) == 0 {
			t.Fatalf("exploration: %d runs, truncated=%v", len(runs), truncated)
		}
		corr := MonitorCorrespondence(w.Capacity)
		for i, r := range runs {
			if r.Deadlock {
				t.Fatalf("monitor run %d deadlocked:\n%s", i, r.Comp)
			}
			res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
			if !res.Sat() {
				t.Fatalf("monitor run %d fails sat (%+v): %v\n%s", i, w, res.Error(), r.Comp)
			}
		}
		t.Logf("workload %+v: verified %d monitor computations", w, len(runs))
	}
}

func TestSatCSP(t *testing.T) {
	for _, w := range []Workload{stdWorkload(), deepWorkload()} {
		problem, err := ProblemSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		prog := NewCSPProgram(w)
		runs, truncated, err := csp.Explore(prog, csp.ExploreOptions{MaxRuns: 60000})
		if err != nil {
			t.Fatal(err)
		}
		if truncated || len(runs) == 0 {
			t.Fatalf("exploration: %d runs, truncated=%v", len(runs), truncated)
		}
		corr := CSPCorrespondence(w)
		for i, r := range runs {
			if r.Deadlock {
				t.Fatalf("csp run %d deadlocked:\n%s", i, r.Comp)
			}
			res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
			if !res.Sat() {
				t.Fatalf("csp run %d fails sat (%+v): %v\n%s", i, w, res.Error(), r.Comp)
			}
		}
		t.Logf("workload %+v: verified %d CSP computations", w, len(runs))
	}
}

func TestSatAda(t *testing.T) {
	for _, w := range []Workload{stdWorkload(), deepWorkload()} {
		problem, err := ProblemSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		prog := NewAdaProgram(w)
		runs, truncated, err := explore.Collect(ada.ExploreStream, prog, ada.ExploreOptions{MaxRuns: 60000})
		if err != nil {
			t.Fatal(err)
		}
		if truncated || len(runs) == 0 {
			t.Fatalf("exploration: %d runs, truncated=%v", len(runs), truncated)
		}
		corr := AdaCorrespondence()
		for i, r := range runs {
			if r.Deadlock {
				t.Fatalf("ada run %d deadlocked:\n%s", i, r.Comp)
			}
			res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
			if !res.Sat() {
				t.Fatalf("ada run %d fails sat (%+v): %v\n%s", i, w, res.Error(), r.Comp)
			}
		}
		t.Logf("workload %+v: verified %d ADA computations", w, len(runs))
	}
}

// TestSatRefutesUnguardedMonitor: removing the deposit full-check makes
// the monitor violate the capacity restriction — failure injection for
// the sat pipeline.
func TestSatRefutesUnguardedMonitor(t *testing.T) {
	w := Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 1}
	problem, err := ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewMonitorProgram(w)
	// Mutate: drop the "wait while full" guard (the first statement).
	for i, e := range prog.Monitor.Entries {
		if e.Name == "deposit" {
			prog.Monitor.Entries[i].Body = e.Body[1:]
		}
	}
	runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	corr := MonitorCorrespondence(w.Capacity)
	refuted := false
	for _, r := range runs {
		if r.Deadlock {
			continue
		}
		res := verify.Check(problem, r.Comp, corr, logic.CheckOptions{})
		if !res.Sat() {
			refuted = true
		}
	}
	if !refuted {
		t.Fatal("unguarded deposit must be refuted by the capacity restriction")
	}
}

// TestMonitorProgramLegality ties the generated computations back to the
// Monitor primitive spec (E5).
func TestMonitorProgramLegality(t *testing.T) {
	w := stdWorkload()
	prog := NewMonitorProgram(w)
	s := monitor.Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("monitor buffer computation illegal: %v", res.Error())
		}
	}
}

func TestItemValueDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 1; i <= 3; i++ {
		for k := 1; k <= 5; k++ {
			v := ItemValue(i, k)
			if seen[v] {
				t.Fatalf("duplicate item value %d", v)
			}
			seen[v] = true
		}
	}
}
