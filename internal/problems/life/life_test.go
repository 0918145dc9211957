package life

import (
	"testing"

	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/logic"
)

// blinker is the classic period-2 oscillator on a 5x5 board.
func blinker() Board {
	b := NewBoard(5, 5)
	b[2][1], b[2][2], b[2][3] = true, true, true
	return b
}

// glider on a 5x5 board.
func glider() Board {
	b := NewBoard(5, 5)
	b[0][1] = true
	b[1][2] = true
	b[2][0], b[2][1], b[2][2] = true, true, true
	return b
}

func TestSyncBlinkerOscillates(t *testing.T) {
	b := blinker()
	b1 := SyncStep(b)
	// Vertical after one step.
	want := NewBoard(5, 5)
	want[1][2], want[2][2], want[3][2] = true, true, true
	if !b1.Equal(want) {
		t.Fatalf("blinker step wrong:\n%s", b1)
	}
	if !SyncStep(b1).Equal(b) {
		t.Fatal("blinker must have period 2")
	}
}

func TestSyncRules(t *testing.T) {
	// Lone cell dies; 2x2 block is stable.
	lone := NewBoard(3, 3)
	lone[1][1] = true
	if got := SyncStep(lone); got[1][1] {
		t.Error("lone cell must die of underpopulation")
	}
	block := NewBoard(4, 4)
	block[1][1], block[1][2], block[2][1], block[2][2] = true, true, true, true
	if !SyncStep(block).Equal(block) {
		t.Error("block must be a still life")
	}
}

// TestAsyncEqualsSyncAcrossSchedules is the paper's functional
// correctness claim (experiment E8): the asynchronous distributed run
// matches the synchronous reference on every schedule sampled.
func TestAsyncEqualsSyncAcrossSchedules(t *testing.T) {
	boards := map[string]Board{"blinker": blinker(), "glider": glider()}
	for name, start := range boards {
		for _, gens := range []int{1, 2, 3} {
			want := SyncRun(start.Clone(), gens)
			for seed := int64(0); seed < 12; seed++ {
				run, err := AsyncRun(start.Clone(), gens, seed)
				if err != nil {
					t.Fatalf("%s gens=%d seed=%d: %v", name, gens, seed, err)
				}
				if !run.Final.Equal(want) {
					t.Fatalf("%s gens=%d seed=%d diverged:\nasync:\n%ssync:\n%s",
						name, gens, seed, run.Final, want)
				}
			}
		}
	}
}

func TestAsyncComputationLegality(t *testing.T) {
	start := blinker()
	s := Spec(start)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := AsyncRun(start, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, run.Comp, legal.Options{})
	if !res.Legal() {
		t.Fatalf("async computation illegal: %v", res.Error())
	}
}

func TestGenerationCausality(t *testing.T) {
	start := NewBoard(3, 3)
	start[1][1], start[0][1], start[2][1] = true, true, true
	gens := 2
	run, err := AsyncRun(start, gens, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := GenerationCausality(start, gens)
	if cx := logic.HoldsAtFull(f, run.Comp); cx != nil {
		t.Fatalf("generation causality violated: %v", cx.Error())
	}
}

func TestAsyncCellsDriftButStayCausal(t *testing.T) {
	// Find a schedule where two cells are momentarily more than one
	// generation apart in the event order — demonstrating the absence of
	// a global barrier — while the result still matches.
	start := blinker()
	gens := 3
	drifted := false
	for seed := int64(0); seed < 30 && !drifted; seed++ {
		run, err := AsyncRun(start.Clone(), gens, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Look for a Compute(g) event concurrent with a Compute(g-2) of
		// another cell: possible only without a global barrier.
		var events []core.EventID
		for i := 0; i < run.Comp.NumEvents(); i++ {
			if id := core.EventID(i); run.Comp.Event(id).Class() == "Compute" {
				events = append(events, id)
			}
		}
		for _, a := range events {
			for _, b := range events {
				ga, _ := run.Comp.Event(a).Params().Get("gen")
				gb, _ := run.Comp.Event(b).Params().Get("gen")
				if ga.I >= gb.I+2 && run.Comp.Concurrent(a, b) {
					drifted = true
				}
			}
		}
	}
	if !drifted {
		t.Error("expected some schedule with cells >1 generation apart")
	}
}

// TestStaleStateMutantDetected injects the classic asynchronous-Life bug:
// a cell computes with whatever neighbour states have arrived (ignoring
// the generation barrier). The result diverges from the reference on
// some schedule, and the GenerationCausality restriction refutes it.
func TestStaleStateMutantDetected(t *testing.T) {
	start := blinker()
	gens := 2
	want := SyncRun(start.Clone(), gens)
	divergedOrRefuted := false
	for seed := int64(0); seed < 20; seed++ {
		run, err := asyncRunStale(start.Clone(), gens, seed)
		if err != nil {
			continue
		}
		if !run.Final.Equal(want) {
			divergedOrRefuted = true
			break
		}
		if cx := logic.HoldsAtFull(GenerationCausality(start, gens), run.Comp); cx != nil {
			divergedOrRefuted = true
			break
		}
	}
	if !divergedOrRefuted {
		t.Fatal("the stale-state mutant must be detected")
	}
}

func TestBoardHelpers(t *testing.T) {
	b := NewBoard(3, 2)
	if b.Width() != 3 || b.Height() != 2 {
		t.Fatal("dimensions wrong")
	}
	b[0][0] = true
	c := b.Clone()
	c[0][0] = false
	if !b[0][0] {
		t.Error("Clone must not alias")
	}
	if b.Equal(c) {
		t.Error("Equal must detect difference")
	}
	if b.Equal(NewBoard(2, 2)) {
		t.Error("Equal must detect size difference")
	}
	if s := b.String(); s != "#..\n...\n" {
		t.Errorf("String = %q", s)
	}
}

// asyncRunStale is the failure-injection mutant: a cell computes one
// neighbour report early, breaking the generation barrier.
func asyncRunStale(start Board, gens int, seed int64) (Run, error) {
	return asyncRun(start, gens, seed, false)
}
