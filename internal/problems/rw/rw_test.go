package rw

import (
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/explore/exploretest"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/thread"
)

// --- E3: the Section 8 problem specification ---------------------------

func TestProblemSpecParses(t *testing.T) {
	s, err := ProblemSpec([]string{"u1", "u2"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Element("db.control"); !ok {
		t.Error("db.control missing")
	}
	if _, ok := s.Element("db.data"); !ok {
		t.Error("db.data missing")
	}
	if _, ok := s.Element("u1"); !ok {
		t.Error("u1 missing")
	}
	if got := len(s.Threads()); got != 2 {
		t.Errorf("piRW alternatives = %d, want 2", got)
	}
	if _, ok := s.Group("db"); !ok {
		t.Error("db group missing")
	}
}

func TestSerializedComputationLegal(t *testing.T) {
	s, err := ProblemSpec([]string{"u1", "u2"}, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildComputation(s, []Transaction{
		{User: "u1", Write: true, Value: 7},
		{User: "u2"},
		{User: "u1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if !res.Legal() {
		t.Fatalf("serialized write-read-read computation must be legal: %v", res.Error())
	}
}

func TestProblemSpecRefutesMutualExclusionViolation(t *testing.T) {
	s, err := ProblemSpec([]string{"u1", "u2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reader starts, writer starts before reader ends: StartRead, then
	// StartWrite with no intervening EndRead — a history with both active
	// exists.
	b := core.NewBuilder()
	r := b.Event("u1", "Read", core.Params{})
	rq := b.Event("db.control", "ReqRead", core.Params{})
	st := b.Event("db.control", "StartRead", core.Params{})
	w := b.Event("u2", "Write", core.NewParams(core.P("info", core.Int(5))))
	wq := b.Event("db.control", "ReqWrite", core.NewParams(core.P("info", core.Int(5))))
	sw := b.Event("db.control", "StartWrite", core.NewParams(core.P("info", core.Int(5))))
	as := b.Event("db.data", "Assign", core.NewParams(core.P("newval", core.Int(5))))
	ew := b.Event("db.control", "EndWrite", core.Params{})
	fw := b.Event("u2", "FinishWrite", core.Params{})
	gv := b.Event("db.data", "Getval", core.NewParams(core.P("oldval", core.Int(5))))
	er := b.Event("db.control", "EndRead", core.NewParams(core.P("info", core.Int(5))))
	fr := b.Event("u1", "FinishRead", core.NewParams(core.P("info", core.Int(5))))
	chain(b, r, rq, st, gv, er, fr)
	chain(b, w, wq, sw, as, ew, fw)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(c, s.Threads()...)
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("overlapping read and write must violate mutual exclusion")
	}
	found := false
	for _, v := range res.Violations {
		if v.Restriction == "writers-exclude-readers" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected writers-exclude-readers violation, got %v", res.Violations)
	}
}

func TestProblemSpecRefutesPriorityViolation(t *testing.T) {
	s, err := ProblemSpec([]string{"u1", "u2"}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Both requests pending, then the write is serviced first: ReqRead,
	// ReqWrite, StartWrite, ..., StartRead — violates readers priority.
	b := core.NewBuilder()
	r := b.Event("u1", "Read", core.Params{})
	rq := b.Event("db.control", "ReqRead", core.Params{})
	w := b.Event("u2", "Write", core.NewParams(core.P("info", core.Int(5))))
	wq := b.Event("db.control", "ReqWrite", core.NewParams(core.P("info", core.Int(5))))
	sw := b.Event("db.control", "StartWrite", core.NewParams(core.P("info", core.Int(5))))
	as := b.Event("db.data", "Assign", core.NewParams(core.P("newval", core.Int(5))))
	ew := b.Event("db.control", "EndWrite", core.Params{})
	fw := b.Event("u2", "FinishWrite", core.Params{})
	st := b.Event("db.control", "StartRead", core.Params{})
	gv := b.Event("db.data", "Getval", core.NewParams(core.P("oldval", core.Int(5))))
	er := b.Event("db.control", "EndRead", core.NewParams(core.P("info", core.Int(5))))
	fr := b.Event("u1", "FinishRead", core.NewParams(core.P("info", core.Int(5))))
	chain(b, r, rq, st, gv, er, fr)
	chain(b, w, wq, sw, as, ew, fw)
	// Force the writer's start after the read request in the temporal
	// order (both pending simultaneously at the history {r, rq, w, wq}).
	b.Enable(rq, sw)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(c, s.Threads()...)
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("write serviced before a pending read must violate readers priority")
	}
	found := false
	for _, v := range res.Violations {
		if v.Restriction == "readers-priority" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected readers-priority violation, got %v", res.Violations)
	}
	// Without the priority restriction the same computation is legal.
	s2, err := ProblemSpec([]string{"u1", "u2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	res2 := legal.Check(s2, c, legal.Options{})
	if !res2.Legal() {
		t.Errorf("without priority the computation should be legal: %v", res2.Error())
	}
}

func TestProblemSpecRefutesStaleRead(t *testing.T) {
	s, err := ProblemSpec([]string{"u1", "u2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildComputation(s, []Transaction{
		{User: "u1", Write: true, Value: 7},
		{User: "u2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the read: report a value that was never the last assign.
	// A built computation is immutable, so rebuild it with the bad read.
	b := core.NewBuilder()
	for i := 0; i < c.NumEvents(); i++ {
		e := c.Event(core.EventID(i))
		params := e.Params()
		if e.Element() == "db.data" && e.Class() == "Getval" {
			params = core.NewParams(core.P("oldval", core.Int(999)))
		}
		b.Event(e.Element(), e.Class(), params)
		labels := e.Threads()
		for k := 0; k < labels.Len(); k++ {
			b.Thread(e.ID(), labels.At(k))
		}
	}
	for i := 0; i < c.NumEvents(); i++ {
		for _, dst := range c.Enabled(core.EventID(i)) {
			b.Enable(core.EventID(i), dst)
		}
	}
	stale, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, stale, legal.Options{})
	if res.Legal() {
		t.Fatal("stale read must violate the Variable restriction")
	}
}

// --- E4: the five monitor variants ------------------------------------

// exploreVariant runs the workload exhaustively and returns the runs.
func exploreVariant(t *testing.T, v Variant, w Workload) []explore.Run {
	t.Helper()
	prog := NewProgram(v, w)
	runs, truncated, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatalf("%v workload %+v truncated", v, w)
	}
	if len(runs) == 0 {
		t.Fatalf("%v produced no runs", v)
	}
	return runs
}

// TestVariantMatrix checks every variant against the property matrix
// (experiment E4 plus the cross-variant distinctions): mutual exclusion
// always; readers/writers priority as expected; deadlock freedom; and
// reader sharing reachability.
func TestVariantMatrix(t *testing.T) {
	workloads := []Workload{
		{Readers: 2, Writers: 1},
		{Readers: 1, Writers: 2},
	}
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			exp := ExpectedFor(v)
			me := MutualExclusionProp()
			rp := ReadersPriorityProp()
			wp := WritersPriorityProp()
			sharing := false
			rpHolds, wpHolds := true, true
			for _, w := range workloads {
				for _, r := range exploreVariant(t, v, w) {
					if r.Deadlock {
						t.Fatalf("%v deadlocked:\n%s", v, r.Comp)
					}
					if cx := logic.Holds(me, r.Comp, logic.CheckOptions{}); cx != nil {
						t.Fatalf("%v violates mutual exclusion:\n%s", v, r.Comp)
					}
					if cx := logic.Holds(rp, r.Comp, logic.CheckOptions{}); cx != nil {
						rpHolds = false
					}
					if cx := logic.Holds(wp, r.Comp, logic.CheckOptions{}); cx != nil {
						wpHolds = false
					}
					if logic.HoldsAtFull(ReadsOverlap(), r.Comp) == nil {
						sharing = true
					}
				}
			}
			if rpHolds != exp.ReadersPriority {
				t.Errorf("%v: readers-priority = %v, want %v", v, rpHolds, exp.ReadersPriority)
			}
			if wpHolds != exp.WritersPriority {
				t.Errorf("%v: writers-priority = %v, want %v", v, wpHolds, exp.WritersPriority)
			}
			if sharing != exp.AllowsSharing {
				t.Errorf("%v: reader sharing reachable = %v, want %v", v, sharing, exp.AllowsSharing)
			}
		})
	}
}

// TestPaperMonitorLegality: every computation of the paper's monitor
// satisfies the Monitor-primitive spec (E5 tie-in on the real program).
func TestPaperMonitorLegality(t *testing.T) {
	prog := NewProgram(ReadersPriority, Workload{Readers: 2, Writers: 1})
	s := monitor.Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	runs := exploreVariant(t, ReadersPriority, Workload{Readers: 2, Writers: 1})
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("monitor computation illegal: %v\n%s", res.Error(), r.Comp)
		}
	}
}

// TestReadsSeeLastWrite: functional correctness of the data element — a
// Getval always reports the most recent Assign in the element order
// (checked by the Variable restriction embedded in the program spec).
func TestReadsSeeLastWrite(t *testing.T) {
	prog := NewProgram(ReadersPriority, Workload{Readers: 1, Writers: 2})
	s := monitor.Spec(prog)
	runs := exploreVariant(t, ReadersPriority, Workload{Readers: 1, Writers: 2})
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("run violates program spec: %v", res.Error())
		}
		// Every Getval must report 0, 101, or 102.
		for _, id := range r.Comp.EventsOf(core.Ref(DataElement, "Getval")) {
			got, _ := r.Comp.Event(id).Params().Get("oldval")
			if got != core.Int(0) && got != core.Int(101) && got != core.Int(102) {
				t.Errorf("read saw impossible value %v", got)
			}
		}
	}
}

func TestVariantStrings(t *testing.T) {
	for _, v := range Variants() {
		if v.String() == "" {
			t.Errorf("variant %d has no name", v)
		}
	}
	if Variant(99).String() != "variant(99)" {
		t.Error("unknown variant rendering wrong")
	}
}

func TestNewMonitorUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown variant should panic")
		}
	}()
	NewMonitor(Variant(99))
}

// TestBrokenSignalCausesDeadlock: the paper reports proving "lack of
// deadlock"; here the converse — dropping the EndRead signal leaves a
// waiting writer stuck forever, and the exhaustive exploration exposes
// the deadlocked computation.
func TestBrokenSignalCausesDeadlock(t *testing.T) {
	prog := NewProgram(ReadersPriority, Workload{Readers: 1, Writers: 1})
	for i, e := range prog.Monitor.Entries {
		if e.Name == "EndRead" {
			// Drop the "IF readernum = 0 THEN SIGNAL(writequeue)" step.
			prog.Monitor.Entries[i].Body = e.Body[:1]
		}
	}
	runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadlocked := 0
	for _, r := range runs {
		if r.Deadlock {
			deadlocked++
		}
	}
	if deadlocked == 0 {
		t.Fatal("dropping the signal must produce a deadlocked schedule")
	}
	t.Logf("%d of %d schedules deadlock without the signal", deadlocked, len(runs))
}

// TestIntactMonitorDeadlockFree is the positive side: the paper's monitor
// never deadlocks on any explored schedule.
func TestIntactMonitorDeadlockFree(t *testing.T) {
	for _, w := range []Workload{{Readers: 2, Writers: 1}, {Readers: 1, Writers: 2}} {
		runs, _, err := monitor.Explore(NewProgram(ReadersPriority, w), monitor.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if r.Deadlock {
				t.Fatalf("unexpected deadlock under %+v:\n%s", w, r.Comp)
			}
		}
	}
}

// TestExplorationReductionOnRW validates the simulator's partial-order
// reduction on the paper's monitor itself: the reduced exploration of a
// 1R+1W workload emits each computation of the unreduced one exactly
// once.
func TestExplorationReductionOnRW(t *testing.T) {
	prog := NewProgram(ReadersPriority, Workload{Readers: 1, Writers: 1})
	collect := func(noReduction bool) []explore.Run {
		runs, truncated, err := monitor.Explore(prog, monitor.ExploreOptions{
			NoReduction: noReduction, MaxRuns: 60000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if truncated {
			t.Fatal("truncated")
		}
		return runs
	}
	reduced, full := collect(false), collect(true)
	if err := exploretest.SameRuns(reduced, full, false); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d computations, reached in %d unreduced runs", len(reduced), len(full))
}

// Expected reports which properties each variant must satisfy (on every
// legal computation) and whether reader sharing must be reachable (on
// some computation).
type Expected struct {
	MutualExclusion bool
	ReadersPriority bool
	WritersPriority bool
	AllowsSharing   bool
}

// ExpectedFor returns the ground truth for a variant.
func ExpectedFor(v Variant) Expected {
	switch v {
	case ReadersPriority:
		return Expected{MutualExclusion: true, ReadersPriority: true, AllowsSharing: true}
	case WritersPriority:
		return Expected{MutualExclusion: true, WritersPriority: true, AllowsSharing: true}
	case MutexOnly:
		return Expected{MutualExclusion: true}
	case WeakPriority:
		return Expected{MutualExclusion: true, AllowsSharing: true}
	case SerialReadersPriority:
		return Expected{MutualExclusion: true, ReadersPriority: true}
	default:
		return Expected{}
	}
}
