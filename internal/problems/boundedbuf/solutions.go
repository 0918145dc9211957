package boundedbuf

import (
	"fmt"

	"gem/internal/ada"
	"gem/internal/csp"
	"gem/internal/lang"
	"gem/internal/monitor"
)

// MonitorName / BufferTask name the guarding component in each solution.
const (
	MonitorName = "buf"
	BufferTask  = "B"
)

// NewMonitorProgram builds the classic monitor bounded buffer: a circular
// store of Capacity cells inside the monitor, deposit waiting on notfull,
// fetch on notempty, values returned through the entry result.
func NewMonitorProgram(w Workload) *monitor.Program {
	n := w.Capacity
	vars := []string{"count", "wpos", "rpos", "tmp"}
	for k := 0; k < n; k++ {
		vars = append(vars, fmt.Sprintf("s%d", k))
	}
	// IF-chains selecting the cell indexed by wpos / rpos.
	storeChain := make([]monitor.Stmt, 0, n)
	loadChain := make([]monitor.Stmt, 0, n)
	for k := 0; k < n; k++ {
		cell := fmt.Sprintf("s%d", k)
		storeChain = append(storeChain, monitor.If{
			Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("wpos"), R: lang.IntLit(int64(k))},
			Then: []monitor.Stmt{monitor.Assign{Var: cell, E: lang.VarRef("v")}},
		})
		loadChain = append(loadChain, monitor.If{
			Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("rpos"), R: lang.IntLit(int64(k))},
			Then: []monitor.Stmt{monitor.Assign{Var: "tmp", E: lang.VarRef(cell)}},
		})
	}
	bump := func(pos string) []monitor.Stmt {
		return []monitor.Stmt{
			monitor.Assign{Var: pos, E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef(pos), R: lang.IntLit(1)}},
			monitor.If{
				Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef(pos), R: lang.IntLit(int64(n))},
				Then: []monitor.Stmt{monitor.Assign{Var: pos, E: lang.IntLit(0)}},
			},
		}
	}
	depositBody := []monitor.Stmt{
		monitor.If{
			Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("count"), R: lang.IntLit(int64(n))},
			Then: []monitor.Stmt{monitor.Wait{Cond: "notfull"}},
		},
	}
	depositBody = append(depositBody, storeChain...)
	depositBody = append(depositBody, bump("wpos")...)
	depositBody = append(depositBody,
		monitor.Assign{Var: "count", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("count"), R: lang.IntLit(1)}},
		monitor.Signal{Cond: "notempty"},
	)
	fetchBody := []monitor.Stmt{
		monitor.If{
			Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("count"), R: lang.IntLit(0)},
			Then: []monitor.Stmt{monitor.Wait{Cond: "notempty"}},
		},
	}
	fetchBody = append(fetchBody, loadChain...)
	fetchBody = append(fetchBody, bump("rpos")...)
	fetchBody = append(fetchBody,
		monitor.Assign{Var: "count", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("count"), R: lang.IntLit(1)}},
		monitor.Signal{Cond: "notfull"},
	)
	mon := &monitor.Monitor{
		Name:  MonitorName,
		Vars:  vars,
		Conds: []string{"notfull", "notempty"},
		Entries: []monitor.Entry{
			{Name: "deposit", Args: []string{"v"}, Body: depositBody},
			{Name: "fetch", Body: fetchBody, Result: lang.VarRef("tmp")},
		},
	}
	prog := &monitor.Program{Monitor: mon}
	for i := 1; i <= w.Producers; i++ {
		var body []monitor.ProcStmt
		for k := 1; k <= w.ItemsPerProducer; k++ {
			body = append(body, monitor.Call{Entry: "deposit", Args: []int64{ItemValue(i, k)}})
		}
		prog.Processes = append(prog.Processes, monitor.Process{Name: ProducerName(i), Body: body})
	}
	for j := 1; j <= w.Consumers; j++ {
		var body []monitor.ProcStmt
		for k := 0; k < w.ItemsPerConsumer(); k++ {
			body = append(body, monitor.Call{Entry: "fetch"})
		}
		prog.Processes = append(prog.Processes, monitor.Process{Name: ConsumerName(j), Body: body})
	}
	return prog
}

// NewCSPProgram builds the CSP bounded buffer: a buffer process holding
// Capacity cells, accepting a producer's send when not full and offering
// the head cell to a consumer when not empty (one guarded branch per
// cell index and partner).
func NewCSPProgram(w Workload) *csp.Program {
	n := w.Capacity
	prog := &csp.Program{}
	for i := 1; i <= w.Producers; i++ {
		var body []csp.Stmt
		for k := 1; k <= w.ItemsPerProducer; k++ {
			body = append(body, csp.Send{To: BufferTask, E: lang.IntLit(ItemValue(i, k))})
		}
		prog.Processes = append(prog.Processes, csp.Process{Name: ProducerName(i), Body: body})
	}
	for j := 1; j <= w.Consumers; j++ {
		var body []csp.Stmt
		for k := 0; k < w.ItemsPerConsumer(); k++ {
			body = append(body, csp.Recv{From: BufferTask, Var: "x"})
		}
		prog.Processes = append(prog.Processes, csp.Process{
			Name: ConsumerName(j), Vars: []string{"x"}, Body: body,
		})
	}
	vars := []string{"count", "wpos", "rpos"}
	for k := 0; k < n; k++ {
		vars = append(vars, fmt.Sprintf("s%d", k))
	}
	var branches []csp.Branch
	for k := 0; k < n; k++ {
		cell := fmt.Sprintf("s%d", k)
		next := int64((k + 1) % n)
		for i := 1; i <= w.Producers; i++ {
			branches = append(branches, csp.Branch{
				// not full and writing into cell k
				Guard: guardAnd(
					lang.Bin{Op: lang.OpLt, L: lang.VarRef("count"), R: lang.IntLit(int64(n))},
					lang.Bin{Op: lang.OpEq, L: lang.VarRef("wpos"), R: lang.IntLit(int64(k))},
				),
				Comm: csp.Recv{From: ProducerName(i), Var: cell},
				Body: []csp.Stmt{
					csp.Assign{Var: "wpos", E: lang.IntLit(next)},
					csp.Assign{Var: "count", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("count"), R: lang.IntLit(1)}},
				},
			})
		}
		for j := 1; j <= w.Consumers; j++ {
			branches = append(branches, csp.Branch{
				Guard: guardAnd(
					lang.Bin{Op: lang.OpGt, L: lang.VarRef("count"), R: lang.IntLit(0)},
					lang.Bin{Op: lang.OpEq, L: lang.VarRef("rpos"), R: lang.IntLit(int64(k))},
				),
				Comm: csp.Send{To: ConsumerName(j), E: lang.VarRef(cell)},
				Body: []csp.Stmt{
					csp.Assign{Var: "rpos", E: lang.IntLit(next)},
					csp.Assign{Var: "count", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("count"), R: lang.IntLit(1)}},
				},
			})
		}
	}
	prog.Processes = append(prog.Processes, csp.Process{
		Name: BufferTask,
		Vars: vars,
		Body: []csp.Stmt{csp.Repeat{N: 2 * w.TotalItems(), Body: []csp.Stmt{csp.Alt{Branches: branches}}}},
	})
	return prog
}

// guardAnd conjoins two 0/1 guards (both non-negative: product via
// addition-equals-2 idiom avoided; use a*b-free encoding: g1+g2=2).
func guardAnd(a, b lang.Expr) lang.Expr {
	return lang.Bin{Op: lang.OpEq, L: lang.Bin{Op: lang.OpAdd, L: a, R: b}, R: lang.IntLit(2)}
}

// NewAdaProgram builds the ADA bounded buffer: a buffer task with Put/Get
// entries served by a guarded selective wait over cell indices.
func NewAdaProgram(w Workload) *ada.Program {
	n := w.Capacity
	prog := &ada.Program{}
	for i := 1; i <= w.Producers; i++ {
		var body []ada.Stmt
		for k := 1; k <= w.ItemsPerProducer; k++ {
			body = append(body, ada.EntryCall{Task: BufferTask, Entry: "Put", Arg: lang.IntLit(ItemValue(i, k))})
		}
		prog.Tasks = append(prog.Tasks, ada.Task{Name: ProducerName(i), Body: body})
	}
	for j := 1; j <= w.Consumers; j++ {
		var body []ada.Stmt
		for k := 0; k < w.ItemsPerConsumer(); k++ {
			body = append(body, ada.EntryCall{Task: BufferTask, Entry: "Get"})
		}
		prog.Tasks = append(prog.Tasks, ada.Task{Name: ConsumerName(j), Body: body})
	}
	vars := []string{"count", "wpos", "rpos"}
	for k := 0; k < n; k++ {
		vars = append(vars, fmt.Sprintf("s%d", k))
	}
	var alts []ada.SelectAlt
	for k := 0; k < n; k++ {
		cell := fmt.Sprintf("s%d", k)
		next := int64((k + 1) % n)
		alts = append(alts,
			ada.SelectAlt{
				Guard: adaGuardAnd(
					lang.Bin{Op: lang.OpLt, L: lang.VarRef("count"), R: lang.IntLit(int64(n))},
					lang.Bin{Op: lang.OpEq, L: lang.VarRef("wpos"), R: lang.IntLit(int64(k))},
				),
				Accept: ada.Accept{Entry: "Put", Param: "v", Body: []ada.Stmt{
					ada.Assign{Var: cell, E: lang.VarRef("v")},
					ada.Assign{Var: "wpos", E: lang.IntLit(next)},
					ada.Assign{Var: "count", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("count"), R: lang.IntLit(1)}},
				}},
			},
			ada.SelectAlt{
				Guard: adaGuardAnd(
					lang.Bin{Op: lang.OpGt, L: lang.VarRef("count"), R: lang.IntLit(0)},
					lang.Bin{Op: lang.OpEq, L: lang.VarRef("rpos"), R: lang.IntLit(int64(k))},
				),
				Accept: ada.Accept{Entry: "Get", Body: []ada.Stmt{
					ada.Reply{E: lang.VarRef(cell)},
					ada.Assign{Var: "rpos", E: lang.IntLit(next)},
					ada.Assign{Var: "count", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("count"), R: lang.IntLit(1)}},
				}},
			},
		)
	}
	prog.Tasks = append(prog.Tasks, ada.Task{
		Name:    BufferTask,
		Entries: []string{"Put", "Get"},
		Vars:    vars,
		Body:    []ada.Stmt{ada.Repeat{N: 2 * w.TotalItems(), Body: []ada.Stmt{ada.Select{Alts: alts}}}},
	})
	return prog
}

func adaGuardAnd(a, b lang.Expr) lang.Expr {
	return lang.Bin{Op: lang.OpEq, L: lang.Bin{Op: lang.OpAdd, L: a, R: b}, R: lang.IntLit(2)}
}
