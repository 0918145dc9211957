package rw

import (
	"fmt"

	"gem/internal/ada"
	"gem/internal/csp"
	"gem/internal/lang"
)

// This file provides the CSP and ADA solutions of the (readers-priority)
// Readers/Writers problem: a controller process/task grants reads while
// no write is in progress and writes only when nothing is active, with
// pending requests held at the controller — CSP via guarded input
// acceptance, ADA via guarded selective wait. In both, a request becomes
// visible only when granted (the synchronous grant IS the service), so
// the paper's priority restriction holds vacuously: two requests are
// never simultaneously pending at the control. Mutual exclusion and
// functional correctness are the substantive properties.

// Request codes on the client→controller channels.
const (
	msgStartRead  = 1
	msgEndRead    = 2
	msgStartWrite = 3
	msgEndWrite   = 4
)

// ControllerName is the CSP/ADA control process name.
const ControllerName = "ctrl"

// NewCSPProgram builds the CSP Readers/Writers solution for the workload.
// Reader r: ctrl!SR, read the data, ctrl!ER. Writer w: ctrl!SW, write,
// ctrl!EW. The controller accepts SR only when not writing, SW only when
// idle; per-client progress counters stand in for message kinds on the
// single channel per client.
func NewCSPProgram(w Workload) *csp.Program {
	prog := &csp.Program{}
	var clients []string
	for i := 1; i <= w.Readers; i++ {
		name := fmt.Sprintf("r%d", i)
		clients = append(clients, name)
		prog.Processes = append(prog.Processes, csp.Process{
			Name: name,
			Body: []csp.Stmt{
				csp.Send{To: ControllerName, E: lang.IntLit(msgStartRead)},
				csp.Op{Element: DataElement, Class: "Getval"},
				csp.Send{To: ControllerName, E: lang.IntLit(msgEndRead)},
			},
		})
	}
	for j := 1; j <= w.Writers; j++ {
		name := fmt.Sprintf("w%d", j)
		clients = append(clients, name)
		prog.Processes = append(prog.Processes, csp.Process{
			Name: name,
			Body: []csp.Stmt{
				csp.Send{To: ControllerName, E: lang.IntLit(msgStartWrite)},
				csp.Op{Element: DataElement, Class: "Assign",
					Params: map[string]lang.Expr{"newval": lang.IntLit(int64(100 + j))}},
				csp.Send{To: ControllerName, E: lang.IntLit(msgEndWrite)},
			},
		})
	}

	// Controller state: readers count, writing flag, and per-client
	// message counters (got_<c>: 0 = expecting start, 1 = expecting end).
	vars := []string{"readers", "writing"}
	for _, c := range clients {
		vars = append(vars, "got_"+c)
	}
	var branches []csp.Branch
	for i := 1; i <= w.Readers; i++ {
		name := fmt.Sprintf("r%d", i)
		got := lang.VarRef("got_" + name)
		branches = append(branches,
			csp.Branch{ // StartRead: no write in progress
				Guard: lang.Bin{Op: lang.OpEq,
					L: lang.Bin{Op: lang.OpAdd, L: got, R: lang.VarRef("writing")}, R: lang.IntLit(0)},
				Comm: csp.Recv{From: name, Var: "m"},
				Body: []csp.Stmt{
					csp.Assign{Var: "readers", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("readers"), R: lang.IntLit(1)}},
					csp.Assign{Var: "got_" + name, E: lang.IntLit(1)},
				},
			},
			csp.Branch{ // EndRead
				Guard: lang.Bin{Op: lang.OpEq, L: got, R: lang.IntLit(1)},
				Comm:  csp.Recv{From: name, Var: "m"},
				Body: []csp.Stmt{
					csp.Assign{Var: "readers", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("readers"), R: lang.IntLit(1)}},
					csp.Assign{Var: "got_" + name, E: lang.IntLit(2)},
				},
			},
		)
	}
	for j := 1; j <= w.Writers; j++ {
		name := fmt.Sprintf("w%d", j)
		got := lang.VarRef("got_" + name)
		branches = append(branches,
			csp.Branch{ // StartWrite: first message, nothing active
				// got, readers, and writing are all non-negative, so the
				// zero sum means got=0 ∧ readers=0 ∧ writing=0.
				Guard: lang.Bin{Op: lang.OpEq,
					L: lang.Bin{Op: lang.OpAdd, L: got,
						R: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("readers"), R: lang.VarRef("writing")}},
					R: lang.IntLit(0)},
				Comm: csp.Recv{From: name, Var: "m"},
				Body: []csp.Stmt{
					csp.Assign{Var: "writing", E: lang.IntLit(1)},
					csp.Assign{Var: "got_" + name, E: lang.IntLit(1)},
				},
			},
			csp.Branch{ // EndWrite
				Guard: lang.Bin{Op: lang.OpEq, L: got, R: lang.IntLit(1)},
				Comm:  csp.Recv{From: name, Var: "m"},
				Body: []csp.Stmt{
					csp.Assign{Var: "writing", E: lang.IntLit(0)},
					csp.Assign{Var: "got_" + name, E: lang.IntLit(2)},
				},
			},
		)
	}
	totalMsgs := 2 * (w.Readers + w.Writers)
	prog.Processes = append(prog.Processes, csp.Process{
		Name: ControllerName,
		Vars: append(vars, "m"),
		Body: []csp.Stmt{
			csp.Repeat{N: totalMsgs, Body: []csp.Stmt{csp.Alt{Branches: branches}}},
		},
	})
	return prog
}

// NewAdaProgram builds the ADA Readers/Writers solution: a controller
// task with StartRead/EndRead/StartWrite/EndWrite entries served by a
// guarded selective wait.
func NewAdaProgram(w Workload) *ada.Program {
	prog := &ada.Program{}
	total := 0
	for i := 1; i <= w.Readers; i++ {
		name := fmt.Sprintf("r%d", i)
		prog.Tasks = append(prog.Tasks, ada.Task{
			Name: name,
			Body: []ada.Stmt{
				ada.EntryCall{Task: ControllerName, Entry: "StartRead"},
				ada.Op{Element: DataElement, Class: "Getval"},
				ada.EntryCall{Task: ControllerName, Entry: "EndRead"},
			},
		})
		total += 2
	}
	for j := 1; j <= w.Writers; j++ {
		name := fmt.Sprintf("w%d", j)
		prog.Tasks = append(prog.Tasks, ada.Task{
			Name: name,
			Body: []ada.Stmt{
				ada.EntryCall{Task: ControllerName, Entry: "StartWrite"},
				ada.Op{Element: DataElement, Class: "Assign",
					Params: map[string]lang.Expr{"newval": lang.IntLit(int64(100 + j))}},
				ada.EntryCall{Task: ControllerName, Entry: "EndWrite"},
			},
		})
		total += 2
	}
	inc := func(v string, by int64) ada.Stmt {
		return ada.Assign{Var: v, E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef(v), R: lang.IntLit(by)}}
	}
	sel := ada.Select{Alts: []ada.SelectAlt{
		{
			Guard:  lang.Bin{Op: lang.OpEq, L: lang.VarRef("writing"), R: lang.IntLit(0)},
			Accept: ada.Accept{Entry: "StartRead", Body: []ada.Stmt{inc("readers", 1)}},
		},
		{
			Accept: ada.Accept{Entry: "EndRead", Body: []ada.Stmt{inc("readers", -1)}},
		},
		{
			Guard: lang.Bin{Op: lang.OpEq,
				L: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("readers"), R: lang.VarRef("writing")},
				R: lang.IntLit(0)},
			Accept: ada.Accept{Entry: "StartWrite", Body: []ada.Stmt{ada.Assign{Var: "writing", E: lang.IntLit(1)}}},
		},
		{
			Accept: ada.Accept{Entry: "EndWrite", Body: []ada.Stmt{ada.Assign{Var: "writing", E: lang.IntLit(0)}}},
		},
	}}
	prog.Tasks = append(prog.Tasks, ada.Task{
		Name:    ControllerName,
		Entries: []string{"StartRead", "EndRead", "StartWrite", "EndWrite"},
		Vars:    []string{"readers", "writing"},
		Body:    []ada.Stmt{ada.Repeat{N: total, Body: []ada.Stmt{sel}}},
	})
	return prog
}
