package lang

import (
	"fmt"
	"slices"
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
)

// vars is an Env over a plain map.
type vars map[string]int64

func (v vars) Lookup(name string) int64 {
	x, ok := v[name]
	if !ok {
		panic("undefined " + name)
	}
	return x
}

func TestExpr(t *testing.T) {
	env := vars{"x": 5, "y": 2}
	tests := []struct {
		e    Expr
		want int64
		str  string
	}{
		{IntLit(7), 7, "7"},
		{IntLit(-3), -3, "-3"},
		{VarRef("x"), 5, "x"},
		{Bin{Op: OpAdd, L: VarRef("x"), R: VarRef("y")}, 7, "(x + y)"},
		{Bin{Op: OpSub, L: VarRef("x"), R: IntLit(1)}, 4, "(x - 1)"},
		{Bin{Op: OpEq, L: VarRef("x"), R: IntLit(5)}, 1, "(x = 5)"},
		{Bin{Op: OpEq, L: IntLit(1), R: IntLit(2)}, 0, "(1 = 2)"},
		{Bin{Op: OpNe, L: VarRef("x"), R: IntLit(5)}, 0, "(x != 5)"},
		{Bin{Op: OpNe, L: IntLit(1), R: IntLit(2)}, 1, "(1 != 2)"},
		{Bin{Op: OpLt, L: IntLit(1), R: IntLit(2)}, 1, "(1 < 2)"},
		{Bin{Op: OpLt, L: IntLit(2), R: IntLit(1)}, 0, "(2 < 1)"},
		{Bin{Op: OpLe, L: IntLit(2), R: IntLit(2)}, 1, "(2 <= 2)"},
		{Bin{Op: OpLe, L: IntLit(3), R: IntLit(2)}, 0, "(3 <= 2)"},
		{Bin{Op: OpGt, L: IntLit(3), R: IntLit(2)}, 1, "(3 > 2)"},
		{Bin{Op: OpGt, L: IntLit(1), R: IntLit(2)}, 0, "(1 > 2)"},
		{Bin{Op: OpGe, L: IntLit(2), R: IntLit(2)}, 1, "(2 >= 2)"},
		{Bin{Op: OpGe, L: IntLit(2), R: IntLit(3)}, 0, "(2 >= 3)"},
		{Bin{Op: OpAnd, L: IntLit(1), R: IntLit(0)}, 0, "(1 & 0)"},
		{Bin{Op: OpAnd, L: IntLit(2), R: IntLit(1)}, 1, "(2 & 1)"},
		{Bin{Op: OpOr, L: IntLit(1), R: IntLit(0)}, 1, "(1 | 0)"},
		{Bin{Op: OpOr, L: IntLit(0), R: IntLit(0)}, 0, "(0 | 0)"},
		{Bin{Op: OpAdd, L: Bin{Op: OpSub, L: VarRef("x"), R: VarRef("y")}, R: IntLit(1)}, 4, "((x - y) + 1)"},
	}
	for _, tt := range tests {
		if got := tt.e.Eval(env); got != tt.want {
			t.Errorf("%s = %d, want %d", tt.e, got, tt.want)
		}
		if got := tt.e.String(); got != tt.str {
			t.Errorf("String() = %q, want %q", got, tt.str)
		}
	}
}

// TestOpExec runs Op statements of one process "p" against one cell:
// local events carry their evaluated parameters only, external ones
// also "proc", a Getval reads the cell, an Assign stores its newval, and
// an Assign without one leaves the cell as it is.
func TestOpExec(t *testing.T) {
	log := explore.NewLog(1)
	cells := map[string]int64{}
	env := vars{"x": 4}
	ops := []Op{
		{Class: "Work", Params: map[string]Expr{"n": Bin{Op: OpAdd, L: VarRef("x"), R: IntLit(1)}}},
		{Class: "Getval", Element: "d"},
		{Class: "Assign", Element: "d", Params: map[string]Expr{"newval": VarRef("x")}},
		{Class: "Assign", Element: "d"},
		{Class: "Getval", Element: "d"},
	}
	for _, op := range ops {
		op.Exec(&log, 0, "p", env, cells)
	}
	c, err := log.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`p.Work^0(n=5)`,
		`d.Getval^0(oldval=0, proc="p")`,
		`d.Assign^1(newval=4, proc="p")`,
		`d.Assign^2(proc="p")`,
		`d.Getval^3(oldval=4, proc="p")`,
	}
	if c.NumEvents() != len(want) {
		t.Fatalf("%d events, want %d", c.NumEvents(), len(want))
	}
	for i := range want {
		e := c.Event(core.EventID(i))
		if got := fmt.Sprintf("%s.%s^%d%s", e.Element(), e.Class(), e.Seq(), e.Params()); got != want[i] {
			t.Errorf("event %d = %s, want %s", i, got, want[i])
		}
	}
	if cells["d"] != 4 {
		t.Errorf("cell = %d, want 4", cells["d"])
	}
	for i := 1; i < len(want); i++ {
		if !slices.Contains(c.Enabled(core.EventID(i-1)), core.EventID(i)) {
			t.Errorf("event %d does not enable event %d: one process's events chain", i-1, i)
		}
	}
}
