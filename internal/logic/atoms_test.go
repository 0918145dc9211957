package logic

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/order"
	"gem/internal/thread"
)

// diamondComp builds the Section 7 diamond with parameters so parameter
// predicates can be exercised: e1..e4, each at its own element, e1 with
// val=1 etc.
func diamondComp(t *testing.T) (*core.Computation, [4]core.EventID) {
	t.Helper()
	b := core.NewBuilder()
	var ids [4]core.EventID
	for i := 0; i < 4; i++ {
		ids[i] = b.Event("EL"+string(rune('1'+i)), "E", core.NewParams(core.P("val", core.Int(int64(i+1)))))
	}
	b.Enable(ids[0], ids[1])
	b.Enable(ids[0], ids[2])
	b.Enable(ids[1], ids[3])
	b.Enable(ids[2], ids[3])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, ids
}

func envWith(c *core.Computation, h history.History, binds map[string]core.EventID) *Env {
	env := NewEnv(h)
	for k, v := range binds {
		env = env.bind(k, v)
	}
	return env
}

func TestAtomicPredicates(t *testing.T) {
	c, ids := diamondComp(t)
	set := order.NewBitset(c.NumEvents())
	set.Set(int(ids[0]))
	set.Set(int(ids[1]))
	h, err := history.FromSet(c, set) // {e1, e2}
	if err != nil {
		t.Fatal(err)
	}
	env := envWith(c, h, map[string]core.EventID{
		"e1": ids[0], "e2": ids[1], "e3": ids[2], "e4": ids[3],
	})

	tests := []struct {
		name string
		f    Formula
		want bool
	}{
		{"true", TrueF{}, true},
		{"false", FalseF{}, false},
		{"occurred e1", Occurred{Var: "e1"}, true},
		{"occurred e3", Occurred{Var: "e3"}, false},
		{"at element", AtElement{Var: "e1", Element: "EL1"}, true},
		{"at wrong element", AtElement{Var: "e1", Element: "EL2"}, false},
		{"in class", InClass{Var: "e1", Ref: core.Ref("EL1", "E")}, true},
		{"in wrong class", InClass{Var: "e1", Ref: core.Ref("", "F")}, false},
		{"enables direct", Enables{X: "e1", Y: "e2"}, true},
		{"enables not transitive", Enables{X: "e1", Y: "e4"}, false},
		{"elem order same element only", ElemOrdered{X: "e1", Y: "e2"}, false},
		{"temporal transitive", Precedes{X: "e1", Y: "e4"}, true},
		{"temporal not backwards", Precedes{X: "e4", Y: "e1"}, false},
		{"concurrent", ConcurrentWith{X: "e2", Y: "e3"}, true},
		{"not concurrent", ConcurrentWith{X: "e1", Y: "e2"}, false},
		{"same event", SameEvent{X: "e1", Y: "e1"}, true},
		{"different events", SameEvent{X: "e1", Y: "e2"}, false},
		{"param lt", ParamCmp{X: "e1", P: "val", Op: OpLt, Y: "e2", Q: "val"}, true},
		{"param eq self", ParamCmp{X: "e1", P: "val", Op: OpEq, Y: "e1", Q: "val"}, true},
		{"param missing", ParamCmp{X: "e1", P: "nope", Op: OpEq, Y: "e1", Q: "val"}, false},
		{"param const ge", ParamConst{X: "e4", P: "val", Op: OpGe, V: core.Int(4)}, true},
		{"param const ne", ParamConst{X: "e4", P: "val", Op: OpNe, V: core.Int(4)}, false},
		{"new e2", New{Var: "e2"}, true},
		{"not new e1", New{Var: "e1"}, false},
		{"potential e3", Potential{Var: "e3"}, true},
		{"not potential e4", Potential{Var: "e4"}, false},
		{"at control: e2 has not enabled e4", AtControl{Var: "e2", Ref: core.Ref("EL4", "E")}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Eval(env); got != tt.want {
				t.Errorf("%s = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestCmpOps(t *testing.T) {
	one, two := core.Int(1), core.Int(2)
	tests := []struct {
		op       CmpOp
		a, b     core.Value
		want     bool
		wantName string
	}{
		{OpEq, one, one, true, "="},
		{OpEq, one, two, false, "="},
		{OpNe, one, two, true, "!="},
		{OpLt, one, two, true, "<"},
		{OpLt, two, one, false, "<"},
		{OpLe, one, one, true, "<="},
		{OpGt, two, one, true, ">"},
		{OpGe, one, one, true, ">="},
		{OpGe, one, two, false, ">="},
	}
	for _, tt := range tests {
		if got := tt.op.apply(tt.a, tt.b); got != tt.want {
			t.Errorf("%v %s %v = %v, want %v", tt.a, tt.op, tt.b, got, tt.want)
		}
		if tt.op.String() != tt.wantName {
			t.Errorf("op name = %q, want %q", tt.op.String(), tt.wantName)
		}
	}
}

func TestThreadPredicates(t *testing.T) {
	b := core.NewBuilder()
	x := b.Event("X", "Req", core.Params{})
	y := b.Event("Y", "Start", core.Params{})
	z := b.Event("X", "Req", core.Params{})
	b.Enable(x, y)
	b.Thread(x, thread.ID("pi", 1))
	b.Thread(y, thread.ID("pi", 1))
	b.Thread(z, thread.ID("pi", 2))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(history.Full(c)).
		bind("x", x).bind("y", y).bind("z", z).
		bindThread("t1", thread.ID("pi", 1)).
		bindThread("t2", thread.ID("pi", 2))

	if !(OnThread{X: "x", T: "t1"}).Eval(env) {
		t.Error("x should be on thread pi#1")
	}
	if (OnThread{X: "z", T: "t1"}).Eval(env) {
		t.Error("z is not on thread pi#1")
	}
	if !(ThreadsDistinct{T1: "t1", T2: "t2"}).Eval(env) {
		t.Error("t1 and t2 are distinct")
	}
	if (ThreadsDistinct{T1: "t1", T2: "t1"}).Eval(env) {
		t.Error("t1 equals itself")
	}
}

func TestUnboundVariablePanics(t *testing.T) {
	c, _ := diamondComp(t)
	env := NewEnv(history.Full(c))
	defer func() {
		if r := recover(); r == nil {
			t.Error("unbound variable should panic")
		} else if !strings.Contains(r.(string), "unbound") {
			t.Errorf("panic message = %v", r)
		}
	}()
	Occurred{Var: "ghost"}.Eval(env)
}

func TestFormulaStrings(t *testing.T) {
	tests := []struct {
		f    Formula
		want string
	}{
		{Occurred{Var: "e"}, "occurred(e)"},
		{Enables{X: "a", Y: "b"}, "a |> b"},
		{Precedes{X: "a", Y: "b"}, "a => b"},
		{ElemOrdered{X: "a", Y: "b"}, "a =>el b"},
		{Not{F: TrueF{}}, "~(true)"},
		{And{TrueF{}, FalseF{}}, "(true & false)"},
		{Or{}, "false"},
		{And{}, "true"},
		{Implies{If: TrueF{}, Then: FalseF{}}, "(true -> false)"},
		{Iff{A: TrueF{}, B: TrueF{}}, "(true <-> true)"},
		{Box{F: TrueF{}}, "[](true)"},
		{Diamond{F: TrueF{}}, "<>(true)"},
		{New{Var: "e"}, "new(e)"},
		{Potential{Var: "e"}, "potential(e)"},
		{AtControl{Var: "e", Ref: core.Ref("", "S")}, "e at S"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}
