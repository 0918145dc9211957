package logic

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/order"
	"gem/internal/thread"
)

// variableComputation builds the paper's Variable element: a sequence of
// Assign and Getval events at one element. If faithful, each Getval yields
// the value of the latest preceding Assign.
func variableComputation(t *testing.T, faithful bool) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	b.Event("Var", "Assign", core.NewParams(core.P("newval", core.Int(1))))
	b.Event("Var", "Getval", core.NewParams(core.P("oldval", core.Int(1))))
	b.Event("Var", "Assign", core.NewParams(core.P("newval", core.Int(2))))
	got := core.Int(2)
	if !faithful {
		got = core.Int(1) // stale read
	}
	b.Event("Var", "Getval", core.NewParams(core.P("oldval", got)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// variableRestriction encodes the paper's Section 8.2 Variable
// restriction: for every assign/getval pair with no intervening assign and
// assign before getval, the values must agree.
func variableRestriction() Formula {
	assignRef := core.Ref("Var", "Assign")
	getvalRef := core.Ref("Var", "Getval")
	noIntervening := Not{F: Exists{
		Var: "assign2", Ref: assignRef,
		Body: And{
			ElemOrdered{X: "assign", Y: "assign2"},
			ElemOrdered{X: "assign2", Y: "getval"},
		},
	}}
	return ForAll{
		Var: "assign", Ref: assignRef,
		Body: ForAll{
			Var: "getval", Ref: getvalRef,
			Body: Implies{
				If:   And{ElemOrdered{X: "assign", Y: "getval"}, noIntervening},
				Then: ParamCmp{X: "assign", P: "newval", Op: OpEq, Y: "getval", Q: "oldval"},
			},
		},
	}
}

func TestVariableRestrictionHolds(t *testing.T) {
	c := variableComputation(t, true)
	if cx := Holds(variableRestriction(), c, CheckOptions{}); cx != nil {
		t.Errorf("faithful variable computation should satisfy the restriction: %v", cx.Error())
	}
}

func TestVariableRestrictionRefutesStaleRead(t *testing.T) {
	c := variableComputation(t, false)
	cx := Holds(variableRestriction(), c, CheckOptions{})
	if cx == nil {
		t.Fatal("stale read must violate the Variable restriction")
	}
	if !strings.Contains(cx.Error(), "restriction violated") {
		t.Errorf("counterexample message: %s", cx.Error())
	}
}

// TestMessagePassingRestriction encodes Section 5's send/receive data
// transfer: if send enables receive, their parameters must be equal.
func TestMessagePassingRestriction(t *testing.T) {
	build := func(recvVal int64) *core.Computation {
		b := core.NewBuilder()
		s := b.Event("Sender", "Send", core.NewParams(core.P("par1", core.Int(42))))
		r := b.Event("Receiver", "Receive", core.NewParams(core.P("par2", core.Int(recvVal))))
		b.Enable(s, r)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	restriction := ForAll{
		Var: "send", Ref: core.Ref("", "Send"),
		Body: ForAll{
			Var: "receive", Ref: core.Ref("", "Receive"),
			Body: Implies{
				If:   Enables{X: "send", Y: "receive"},
				Then: ParamCmp{X: "send", P: "par1", Op: OpEq, Y: "receive", Q: "par2"},
			},
		},
	}
	if cx := Holds(restriction, build(42), CheckOptions{}); cx != nil {
		t.Errorf("matching message passing should hold: %v", cx.Error())
	}
	if cx := Holds(restriction, build(7), CheckOptions{}); cx == nil {
		t.Error("corrupted message must be refuted")
	}
}

func TestQuantifiers(t *testing.T) {
	c, ids := diamondComp(t)
	env := NewEnv(history.Full(c))
	anyE := core.Ref("", "E")

	if !(ForAll{Var: "e", Ref: anyE, Body: Occurred{Var: "e"}}).Eval(env) {
		t.Error("all events occurred at the full history")
	}
	if !(Exists{Var: "e", Ref: core.Ref("EL1", "E"), Body: TrueF{}}).Eval(env) {
		t.Error("EL1 has an event")
	}
	if (Exists{Var: "e", Ref: core.Ref("EL9", "E"), Body: TrueF{}}).Eval(env) {
		t.Error("EL9 has no events")
	}
	// Exactly one event enables e4 from EL2.
	uniq := ExistsUnique{Var: "x", Ref: core.Ref("EL2", "E"), Body: Enables{X: "x", Y: "tgt"}}
	if !uniq.Eval(env.bind("tgt", ids[3])) {
		t.Error("exactly one EL2 event enables e4")
	}
	// ExistsUnique fails when two events satisfy the body.
	two := ExistsUnique{Var: "x", Ref: anyE, Body: Enables{X: "x", Y: "tgt"}}
	if two.Eval(env.bind("tgt", ids[3])) {
		t.Error("two enablers of e4: uniqueness must fail")
	}
	// AtMostOne accepts zero.
	zero := AtMostOne{Var: "x", Ref: anyE, Body: Enables{X: "x", Y: "tgt"}}
	if !zero.Eval(env.bind("tgt", ids[0])) {
		t.Error("no enablers of e1: at-most-one holds")
	}
	if two2 := (AtMostOne{Var: "x", Ref: anyE, Body: Enables{X: "x", Y: "tgt"}}); two2.Eval(env.bind("tgt", ids[3])) {
		t.Error("two enablers of e4: at-most-one must fail")
	}
}

func TestThreadQuantifiers(t *testing.T) {
	b := core.NewBuilder()
	x := b.Event("X", "Req", core.Params{})
	y := b.Event("X", "Req", core.Params{})
	b.Thread(x, thread.ID("pi", 1))
	b.Thread(y, thread.ID("pi", 2))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(history.Full(c))

	// Every pi thread has a Req event.
	f := ForAllThread{Var: "t", Type: "pi", Body: Exists{
		Var: "e", Ref: core.Ref("X", "Req"), Body: OnThread{X: "e", T: "t"},
	}}
	if !f.Eval(env) {
		t.Error("every thread should have its Req event")
	}
	// Some pi thread exists.
	g := ExistsThread{Var: "t", Type: "pi", Body: TrueF{}}
	if !g.Eval(env) {
		t.Error("thread domain should be non-empty")
	}
	// No thread of another type.
	h := ExistsThread{Var: "t", Type: "rho", Body: TrueF{}}
	if h.Eval(env) {
		t.Error("no rho threads exist")
	}
}

func TestBoxDiamondOverSequences(t *testing.T) {
	c, ids := diamondComp(t)
	// ◇ occurred(e4) must hold on every complete vhs.
	even := ForAll{Var: "e", Ref: core.Ref("EL4", "E"), Body: Diamond{F: Occurred{Var: "e"}}}
	if cx := Holds(even, c, CheckOptions{}); cx != nil {
		t.Errorf("eventually-e4 should hold on all complete sequences: %v", cx.Error())
	}
	// □ occurred(e1) fails: the empty history lacks e1.
	alwaysE1 := ForAll{Var: "e", Ref: core.Ref("EL1", "E"), Body: Box{F: Occurred{Var: "e"}}}
	if cx := Holds(alwaysE1, c, CheckOptions{}); cx == nil {
		t.Error("always-e1 must fail at the empty history")
	}
	// □(occurred(e4) -> occurred(e2)) holds: e2 precedes e4.
	safety := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL4", "E"), Body: Occurred{Var: "x"}},
		Then: Exists{Var: "y", Ref: core.Ref("EL2", "E"), Body: Occurred{Var: "y"}},
	}}
	if cx := Holds(safety, c, CheckOptions{}); cx != nil {
		t.Errorf("safety implication should hold: %v", cx.Error())
	}
	_ = ids
}

func TestBoxDegeneratesOutsideSequence(t *testing.T) {
	c, _ := diamondComp(t)
	env := NewEnv(history.Full(c))
	f := Box{F: Exists{Var: "e", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "e"}}}
	if !f.Eval(env) {
		t.Error("Box outside a sequence evaluates its body at the current history")
	}
	g := Diamond{F: FalseF{}}
	if g.Eval(env) {
		t.Error("Diamond of false is false everywhere")
	}
}

func TestHoldsInvariantSemantics(t *testing.T) {
	c, _ := diamondComp(t)
	// Invariant (no temporal op, has history predicate): "e4 occurred
	// implies e1 occurred" — holds at every history.
	inv := Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL4", "E"), Body: Occurred{Var: "x"}},
		Then: Exists{Var: "y", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "y"}},
	}
	if cx := Holds(inv, c, CheckOptions{}); cx != nil {
		t.Errorf("prefix-closure invariant should hold: %v", cx.Error())
	}
	// "e1 occurred" is not invariant (fails at the empty history).
	notInv := Exists{Var: "y", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "y"}}
	if cx := Holds(notInv, c, CheckOptions{}); cx == nil {
		t.Error("non-invariant must be refuted at the empty history")
	}
	// But it holds at the full history.
	if cx := HoldsAtFull(notInv, c); cx != nil {
		t.Errorf("HoldsAtFull should accept: %v", cx.Error())
	}
}

// TestLatticeBuiltOncePerCheck: checking several □ restrictions against
// one computation, one Holds call each, enumerates the history lattice
// exactly once.
func TestLatticeBuiltOncePerCheck(t *testing.T) {
	c, _ := diamondComp(t)
	inv := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL4", "E"), Body: Occurred{Var: "x"}},
		Then: Exists{Var: "y", Ref: core.Ref("EL2", "E"), Body: Occurred{Var: "y"}},
	}}
	pairs := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "x"}},
		Then: Box{F: Exists{Var: "y", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "y"}}},
	}}
	before := history.LatticeBuilds()
	for i, f := range []Formula{inv, pairs, inv, pairs} {
		if cx := Holds(f, c, CheckOptions{}); cx != nil {
			t.Fatalf("restriction %d should hold: %v", i, cx.Error())
		}
	}
	if d := history.LatticeBuilds() - before; d != 1 {
		t.Errorf("lattice enumerated %d times across 4 restrictions, want 1", d)
	}
}

func TestLinearExtensionsMissSimultaneousStep(t *testing.T) {
	c, _ := diamondComp(t)
	// A formula distinguishing vhs from linear semantics: "eventually
	// exactly one of e2/e3 has occurred". True on every linear extension
	// (whichever of the pair is added first), but false on the vhs whose
	// simultaneous step adds e2 and e3 "at the same time".
	occ2 := Exists{Var: "x", Ref: core.Ref("EL2", "E"), Body: Occurred{Var: "x"}}
	occ3 := Exists{Var: "y", Ref: core.Ref("EL3", "E"), Body: Occurred{Var: "y"}}
	f := Diamond{F: And{
		Or{occ2, occ3},
		Not{F: And{occ2, occ3}},
	}}
	holdsOn := func(enumerate func(*core.Computation, func(history.Sequence) bool) int) bool {
		ok := true
		enumerate(c, func(s history.Sequence) bool {
			ok = f.Eval(NewSeqEnv(s, 0))
			return ok
		})
		return ok
	}
	if !holdsOn(history.EnumerateLinear) {
		t.Error("under linear semantics the formula holds")
	}
	if holdsOn(history.EnumerateComplete) {
		t.Error("under full vhs semantics the simultaneous step refutes it")
	}
	if cx := Holds(f, c, CheckOptions{}); cx == nil {
		t.Error("Holds checks every valid history sequence, so the simultaneous step refutes it")
	}
}

func TestCounterexampleError(t *testing.T) {
	var nilCx *Counterexample
	if nilCx.Error() != "<no counterexample>" {
		t.Error("nil counterexample message wrong")
	}
	c, _ := diamondComp(t)
	// A genuinely temporal formula (nested ◇) is checked over sequences
	// and the counterexample carries the violating sequence.
	cx := Holds(Box{F: Diamond{F: FalseF{}}}, c, CheckOptions{})
	if cx == nil {
		t.Fatal("expected counterexample")
	}
	if !strings.Contains(cx.Error(), "sequence") {
		t.Errorf("temporal counterexample should mention the sequence: %s", cx.Error())
	}
	// The □-invariant reduction reports the violating history directly.
	cx2 := Holds(Box{F: FalseF{}}, c, CheckOptions{})
	if cx2 == nil || strings.Contains(cx2.Error(), "sequence") {
		t.Errorf("invariant counterexample should be history-level: %v", cx2)
	}
}

func TestHasTemporalAndHistoryPredicates(t *testing.T) {
	tests := []struct {
		f        Formula
		temporal bool
		hist     bool
	}{
		{TrueF{}, false, false},
		{Occurred{Var: "e"}, false, true},
		{Box{F: TrueF{}}, true, false},
		{Diamond{F: Occurred{Var: "e"}}, true, true},
		{Not{F: Box{F: TrueF{}}}, true, false},
		{And{TrueF{}, New{Var: "e"}}, false, true},
		{Or{FalseF{}, Box{F: TrueF{}}}, true, false},
		{Implies{If: TrueF{}, Then: Potential{Var: "e"}}, false, true},
		{Iff{A: TrueF{}, B: AtControl{Var: "e", Ref: core.Ref("", "X")}}, false, true},
		{ForAll{Var: "e", Ref: core.Ref("", "X"), Body: Diamond{F: TrueF{}}}, true, false},
		{Exists{Var: "e", Ref: core.Ref("", "X"), Body: Occurred{Var: "e"}}, false, true},
		{ForAllThread{Var: "t", Type: "pi", Body: Box{F: TrueF{}}}, true, false},
		{Enables{X: "a", Y: "b"}, false, false},
	}
	for _, tt := range tests {
		if got := HasTemporal(tt.f); got != tt.temporal {
			t.Errorf("HasTemporal(%s) = %v, want %v", tt.f, got, tt.temporal)
		}
		if got := HasHistoryPredicate(tt.f); got != tt.hist {
			t.Errorf("HasHistoryPredicate(%s) = %v, want %v", tt.f, got, tt.hist)
		}
	}
}

func TestEnvBindings(t *testing.T) {
	c, ids := diamondComp(t)
	env := NewEnv(history.Full(c))
	if env.Bindings() != "" {
		t.Error("fresh env has no bindings")
	}
	env2 := env.bind("x", ids[0]).bindThread("t", "pi#1")
	s := env2.Bindings()
	if !strings.Contains(s, "x=EL1.E^0") || !strings.Contains(s, "t=pi#1") {
		t.Errorf("Bindings = %q", s)
	}
	if env.lookup("x", false) != nil {
		t.Error("bind must not mutate the parent env")
	}
	if b := env2.lookup("x", false); b == nil || b.id != ids[0] {
		t.Error("lookup failed")
	}
}

// TestVerifyRejectsFragment: a temporal witness must be a complete valid
// history sequence. A two-history fragment that falsifies the formula —
// the shape the deleted history-pair reduction reported — fails Verify,
// as does a step that adds ordered events together, and so does a nil
// counterexample, which witnesses nothing; the complete sequence through
// the same histories passes.
func TestVerifyRejectsFragment(t *testing.T) {
	c, ids := diamondComp(t)
	at := func(members ...core.EventID) history.History {
		set := order.NewBitset(c.NumEvents())
		for _, id := range members {
			set.Set(int(id))
		}
		h, err := history.FromSet(c, set)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// □(no event has occurred): false wherever an event has.
	f := Box{F: Not{F: Exists{Var: "x", Ref: core.Ref("", "E"), Body: Occurred{Var: "x"}}}}
	witness := func(seq history.Sequence) *Counterexample {
		return &Counterexample{Formula: f, History: seq[0], Seq: seq, Comp: c}
	}
	fragment := history.Sequence{at(ids[0]), at(ids[0], ids[1])}
	if err := witness(fragment).Verify(); err == nil || !strings.Contains(err.Error(), "not complete") {
		t.Errorf("two-history fragment: Verify = %v, want an incomplete-sequence error", err)
	}
	jump := history.Sequence{at(), at(ids[0], ids[1]), history.Full(c)}
	if err := witness(jump).Verify(); err == nil || !strings.Contains(err.Error(), "not valid") {
		t.Errorf("step adding e1 ⇒ e2 together: Verify = %v, want an invalid-sequence error", err)
	}
	var missing *Counterexample
	if err := missing.Verify(); err == nil {
		t.Error("nil counterexample: Verify = nil, want an error")
	}
	complete := history.Sequence{at(), at(ids[0]), at(ids[0], ids[1]), at(ids[0], ids[1], ids[2]), history.Full(c)}
	if err := witness(complete).Verify(); err != nil {
		t.Errorf("complete falsifying sequence: Verify = %v", err)
	}
}
