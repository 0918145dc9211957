package monitor

import (
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/explore/exploretest"
	"gem/internal/lang"
	"gem/internal/legal"
)

// counterProgram: a monitor with one Inc entry and n client processes
// each calling Inc once.
func counterProgram(n int) *Program {
	mon := &Monitor{
		Name: "ctr",
		Vars: []string{"count"},
		Entries: []Entry{{
			Name: "Inc",
			Body: []Stmt{Assign{Var: "count", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("count"), R: lang.IntLit(1)}}},
		}},
	}
	var procs []Process
	for i := 0; i < n; i++ {
		procs = append(procs, Process{
			Name: "p" + string(rune('1'+i)),
			Body: []ProcStmt{Call{Entry: "Inc"}},
		})
	}
	return &Program{Monitor: mon, Processes: procs}
}

// finalValue reads a monitor variable's final value off c: the newval of
// the last Assign at its element, which every assignment emits.
func finalValue(c *core.Computation, elem string) int64 {
	v, _ := exploretest.Last(c, core.Ref(elem, "Assign"), "newval")
	return v
}

func TestCounterExploration(t *testing.T) {
	runs, truncated, err := Explore(counterProgram(2), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("tiny program should not truncate")
	}
	// Two orders of monitor entry -> two distinct computations.
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		if r.Deadlock {
			t.Error("counter program should not deadlock")
		}
		if count := finalValue(r.Comp, "ctr.count"); count != 2 {
			t.Errorf("final count = %d, want 2", count)
		}
	}
}

func TestCounterComputationShape(t *testing.T) {
	runs, _, err := Explore(counterProgram(1), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	c := runs[0].Comp
	// Expect: p1.Call, ctr.lock.Acq, ctr.Inc.Begin, ctr.count.Assign,
	// ctr.Inc.End, ctr.lock.Rel, p1.Return = 7 events.
	if c.NumEvents() != 7 {
		t.Fatalf("got %d events:\n%s", c.NumEvents(), c)
	}
	call := c.EventsOf(core.Ref("p1", "Call"))
	ret := c.EventsOf(core.Ref("p1", "Return"))
	assign := c.EventsOf(core.Ref("ctr.count", "Assign"))
	if len(call) != 1 || len(ret) != 1 || len(assign) != 1 {
		t.Fatalf("missing events:\n%s", c)
	}
	if !c.Temporal(call[0], assign[0]) || !c.Temporal(assign[0], ret[0]) {
		t.Error("call must precede assign must precede return")
	}
	if got, _ := c.Event(assign[0]).Params().Get("newval"); got != core.Int(1) {
		t.Errorf("assign newval = %v", got)
	}
	if got, _ := c.Event(ret[0]).Params().Get("entry"); got != core.Str("Inc") {
		t.Errorf("return entry = %v", got)
	}
}

// TestMonitorMutualExclusion checks the paper's sequential-execution
// property on every generated computation (experiment E5, monitor leg).
func TestMonitorMutualExclusion(t *testing.T) {
	prog := counterProgram(3)
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 { // 3! grant orders
		t.Fatalf("got %d runs, want 6", len(runs))
	}
	s := Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("generated computation must satisfy the Monitor spec: %v\n%s", res.Error(), r.Comp)
		}
	}
}

// waitSignalProgram: consumer waits until count > 0; producer increments
// and signals.
func waitSignalProgram() *Program {
	mon := &Monitor{
		Name:  "ws",
		Vars:  []string{"count"},
		Conds: []string{"nonempty"},
		Entries: []Entry{
			{
				Name: "Take",
				Body: []Stmt{
					If{
						Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("count"), R: lang.IntLit(0)},
						Then: []Stmt{Wait{Cond: "nonempty"}},
					},
					Assign{Var: "count", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("count"), R: lang.IntLit(1)}},
				},
			},
			{
				Name: "Put",
				Body: []Stmt{
					Assign{Var: "count", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("count"), R: lang.IntLit(1)}},
					Signal{Cond: "nonempty"},
				},
			},
		},
	}
	return &Program{
		Monitor: mon,
		Processes: []Process{
			{Name: "consumer", Body: []ProcStmt{Call{Entry: "Take"}}},
			{Name: "producer", Body: []ProcStmt{Call{Entry: "Put"}}},
		},
	}
}

func TestWaitSignal(t *testing.T) {
	prog := waitSignalProgram()
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2 (take-first-waits, put-first)", len(runs))
	}
	s := Spec(prog)
	sawRelease := false
	for _, r := range runs {
		if r.Deadlock {
			t.Errorf("unexpected deadlock:\n%s", r.Comp)
		}
		if count := finalValue(r.Comp, "ws.count"); count != 0 {
			t.Errorf("final count = %d, want 0", count)
		}
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Errorf("run violates Monitor spec: %v", res.Error())
		}
		if len(r.Comp.EventsOf(core.Ref("ws.nonempty", "Release"))) > 0 {
			sawRelease = true
			// Release must be enabled by exactly one Signal (checked by
			// the spec), and the waiter's Return must follow the
			// producer's Signal temporally.
			sig := r.Comp.EventsOf(core.Ref("ws.nonempty", "Signal"))
			rel := r.Comp.EventsOf(core.Ref("ws.nonempty", "Release"))
			if !r.Comp.Temporal(sig[0], rel[0]) {
				t.Error("Signal must precede Release")
			}
		}
	}
	if !sawRelease {
		t.Error("some schedule must make the consumer wait")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Consumer waits; nobody signals.
	mon := &Monitor{
		Name:  "d",
		Conds: []string{"never"},
		Entries: []Entry{{
			Name: "Block",
			Body: []Stmt{Wait{Cond: "never"}},
		}},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "Block"}}}},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].Deadlock {
		t.Fatalf("expected a single deadlocked run, got %+v", runs)
	}
}

func TestWhileLoopInEntry(t *testing.T) {
	mon := &Monitor{
		Name: "loop",
		Vars: []string{"i", "sum"},
		Entries: []Entry{{
			Name: "SumTo",
			Args: []string{"n"},
			Body: []Stmt{
				While{
					Cond: lang.Bin{Op: lang.OpLt, L: lang.VarRef("i"), R: lang.VarRef("n")},
					Body: []Stmt{
						Assign{Var: "i", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("i"), R: lang.IntLit(1)}},
						Assign{Var: "sum", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("sum"), R: lang.VarRef("i")}},
					},
				},
			},
			Result: lang.VarRef("sum"),
		}},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "SumTo", Args: []int64{3}}}}},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	if sum := finalValue(runs[0].Comp, "loop.sum"); sum != 6 {
		t.Errorf("sum = %d, want 6", sum)
	}
	ret := runs[0].Comp.EventsOf(core.Ref("p1", "Return"))
	if got, _ := runs[0].Comp.Event(ret[0]).Params().Get("result"); got != core.Int(6) {
		t.Errorf("result param = %v, want 6", got)
	}
}

func TestInitialization(t *testing.T) {
	mon := &Monitor{
		Name: "init",
		Vars: []string{"x"},
		Init: []Stmt{
			Assign{Var: "x", E: lang.IntLit(5)},
			If{Cond: lang.Bin{Op: lang.OpGt, L: lang.VarRef("x"), R: lang.IntLit(3)},
				Then: []Stmt{Assign{Var: "x", E: lang.IntLit(9)}}},
		},
		Entries: []Entry{{Name: "Nop", Body: nil}},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "Nop"}}}},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x := finalValue(runs[0].Comp, "init.x"); x != 9 {
		t.Errorf("x = %d, want 9", x)
	}
	// Init events must temporally precede entry events (total internal
	// order through the chain).
	c := runs[0].Comp
	assigns := c.EventsOf(core.Ref("init.x", "Assign"))
	begins := c.EventsOf(core.Ref("init.Nop", "Begin"))
	if len(assigns) != 2 || len(begins) != 1 {
		t.Fatalf("events wrong:\n%s", c)
	}
	if !c.Temporal(assigns[1], begins[0]) {
		t.Error("initialization must precede entry execution")
	}
}

func TestNonTerminatingProgramCaught(t *testing.T) {
	mon := &Monitor{
		Name: "inf",
		Entries: []Entry{{
			Name: "Spin",
			Body: []Stmt{While{Cond: lang.IntLit(1), Body: []Stmt{Assign{Var: "x", E: lang.IntLit(1)}}}},
		}},
		Vars: []string{"x"},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "Spin"}}}},
	}
	if _, _, err := Explore(prog, ExploreOptions{MaxSteps: 100}); err == nil {
		t.Fatal("non-terminating program must be reported")
	}
}

func TestMaxRunsTruncates(t *testing.T) {
	_, truncated, err := Explore(counterProgram(3), ExploreOptions{MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("MaxRuns=2 must truncate the 6-run exploration")
	}
}

func TestLocalOpsInterleaveConcurrently(t *testing.T) {
	// Two processes doing only local ops: their events are concurrent, so
	// all interleavings collapse to ONE computation.
	mon := &Monitor{Name: "m", Entries: []Entry{{Name: "Nop"}}}
	prog := &Program{
		Monitor: mon,
		Processes: []Process{
			{Name: "a", Body: []ProcStmt{Op{Class: "Work"}, Op{Class: "Work"}}},
			{Name: "b", Body: []ProcStmt{Op{Class: "Work"}}},
		},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1 (interleavings of concurrent events collapse)", len(runs))
	}
	c := runs[0].Comp
	aOps := c.EventsOf(core.Ref("a", "Work"))
	bOps := c.EventsOf(core.Ref("b", "Work"))
	if !c.Concurrent(aOps[0], bOps[0]) {
		t.Error("ops of different processes must be concurrent")
	}
	if !c.Temporal(aOps[0], aOps[1]) {
		t.Error("ops of one process must be ordered")
	}
}

func TestEntryArgsAndBadCalls(t *testing.T) {
	mon := &Monitor{
		Name: "m",
		Vars: []string{"x"},
		Entries: []Entry{{
			Name: "Set", Args: []string{"v"},
			Body: []Stmt{Assign{Var: "x", E: lang.VarRef("v")}},
		}},
	}
	good := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p", Body: []ProcStmt{Call{Entry: "Set", Args: []int64{42}}}}},
	}
	runs, _, err := Explore(good, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x := finalValue(runs[0].Comp, "m.x"); x != 42 {
		t.Errorf("x = %d, want 42", x)
	}

	badArity := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p", Body: []ProcStmt{Call{Entry: "Set"}}}},
	}
	if _, _, err := Explore(badArity, ExploreOptions{}); err == nil {
		t.Error("arity mismatch must fail")
	}
	badEntry := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p", Body: []ProcStmt{Call{Entry: "Ghost"}}}},
	}
	if _, _, err := Explore(badEntry, ExploreOptions{}); err == nil {
		t.Error("unknown entry must fail")
	}
}

func TestExprEvaluation(t *testing.T) {
	env := &evalEnv{vars: map[string]int64{"x": 5, "y": 1}, args: map[string]int64{"y": 2}}
	tests := []struct {
		e    lang.Expr
		want int64
	}{
		{lang.VarRef("x"), 5},
		{lang.VarRef("y"), 2},         // args shadow vars
		{QueueNonEmpty{Cond: "c"}, 0}, // nil machine: empty
	}
	for _, tt := range tests {
		if got := tt.e.Eval(env); got != tt.want {
			t.Errorf("%s = %d, want %d", tt.e, got, tt.want)
		}
	}
}

func TestExprStrings(t *testing.T) {
	if (QueueNonEmpty{Cond: "q"}).String() != "queue(q)" {
		t.Error("queue rendering wrong")
	}
}

func TestUndefinedVariablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undefined variable should panic")
		}
	}()
	lang.VarRef("ghost").Eval(&evalEnv{vars: map[string]int64{}})
}

// TestReductionPreservesComputations validates the partial-order
// reduction: on small programs the reduced exploration emits each
// computation (as a partial order) of the unreduced one exactly once.
func TestReductionPreservesComputations(t *testing.T) {
	programs := map[string]*Program{
		"counter-3":   counterProgram(3),
		"wait-signal": waitSignalProgram(),
		"mixed-ops": {
			Monitor: counterProgram(1).Monitor,
			Processes: []Process{
				{Name: "p1", Body: []ProcStmt{
					Op{Class: "Work"},
					Call{Entry: "Inc"},
					Op{Element: "cell", Class: "Assign", Params: map[string]lang.Expr{"newval": lang.IntLit(1)}},
				}},
				{Name: "p2", Body: []ProcStmt{
					Call{Entry: "Inc"},
					Op{Element: "cell", Class: "Getval"},
				}},
			},
		},
	}
	for name, prog := range programs {
		prog := prog
		t.Run(name, func(t *testing.T) {
			collect := func(noReduction bool) []explore.Run {
				runs, truncated, err := Explore(prog, ExploreOptions{NoReduction: noReduction, MaxRuns: 60000})
				if err != nil {
					t.Fatal(err)
				}
				if truncated {
					t.Fatal("truncated")
				}
				return runs
			}
			if err := exploretest.SameRuns(collect(false), collect(true), false); err != nil {
				t.Fatal(err)
			}
		})
	}
}
