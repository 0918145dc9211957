// Package rw implements the Readers/Writers problem as treated by the
// paper: the Section 8 GEM problem specification (users, RWControl,
// database, πRW threads, mutual-exclusion and priority restrictions), the
// Section 9 ReadersWriters monitor verbatim, and four further versions —
// the paper reports specifying five versions of the problem — together
// with the program-level correctness properties used to verify them.
package rw

import (
	"fmt"

	"gem/internal/lang"
	"gem/internal/monitor"
)

// Variant selects one of the five Readers/Writers solutions.
type Variant int

// The five versions of the Readers/Writers problem (Section 11 of the
// paper reports five).
const (
	// ReadersPriority is the paper's Section 9 monitor, verbatim:
	// readernum is positive while reading, negative while writing; a
	// pending read is serviced before any pending write.
	ReadersPriority Variant = iota + 1
	// WritersPriority makes pending writers exclude new readers.
	WritersPriority
	// MutexOnly serializes every operation — readers do not share.
	MutexOnly
	// WeakPriority lets readers share but guarantees no priority either
	// way (end-of-write prefers writers; readers are not blocked by
	// pending writers).
	WeakPriority
	// SerialReadersPriority gives readers priority but serializes reads.
	SerialReadersPriority
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case ReadersPriority:
		return "readers-priority"
	case WritersPriority:
		return "writers-priority"
	case MutexOnly:
		return "mutex-only"
	case WeakPriority:
		return "weak-priority"
	case SerialReadersPriority:
		return "serial-readers-priority"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Variants lists all five versions.
func Variants() []Variant {
	return []Variant{ReadersPriority, WritersPriority, MutexOnly, WeakPriority, SerialReadersPriority}
}

// MonitorName is the monitor instance name used by all variants.
const MonitorName = "rw"

// DataElement is the external shared element guarded by the monitor (the
// paper: "the data itself must be located outside of the monitor").
const DataElement = "db.data"

// NewMonitor builds the monitor for a variant.
func NewMonitor(v Variant) *monitor.Monitor {
	switch v {
	case ReadersPriority:
		return readersPriorityMonitor()
	case WritersPriority:
		return writersPriorityMonitor()
	case MutexOnly:
		return mutexOnlyMonitor()
	case WeakPriority:
		return weakPriorityMonitor()
	case SerialReadersPriority:
		return serialReadersPriorityMonitor()
	default:
		panic(fmt.Sprintf("rw: unknown variant %d", int(v)))
	}
}

// readersPriorityMonitor is the paper's ReadersWriters monitor,
// transliterated statement for statement.
func readersPriorityMonitor() *monitor.Monitor {
	return &monitor.Monitor{
		Name:  MonitorName,
		Vars:  []string{"readernum"},
		Conds: []string{"readqueue", "writequeue"},
		Entries: []monitor.Entry{
			{
				Name: "StartRead",
				Body: []monitor.Stmt{
					monitor.If{
						Cond: lang.Bin{Op: lang.OpLt, L: lang.VarRef("readernum"), R: lang.IntLit(0)},
						Then: []monitor.Stmt{monitor.Wait{Cond: "readqueue"}},
					},
					monitor.Assign{Var: "readernum", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("readernum"), R: lang.IntLit(1)}},
					monitor.Signal{Cond: "readqueue"},
				},
			},
			{
				Name: "EndRead",
				Body: []monitor.Stmt{
					monitor.Assign{Var: "readernum", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("readernum"), R: lang.IntLit(1)}},
					monitor.If{
						Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("readernum"), R: lang.IntLit(0)},
						Then: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
					},
				},
			},
			{
				Name: "StartWrite",
				Body: []monitor.Stmt{
					monitor.If{
						Cond: lang.Bin{Op: lang.OpNe, L: lang.VarRef("readernum"), R: lang.IntLit(0)},
						Then: []monitor.Stmt{monitor.Wait{Cond: "writequeue"}},
					},
					monitor.Assign{Var: "readernum", E: lang.IntLit(-1)},
				},
			},
			{
				Name: "EndWrite",
				Body: []monitor.Stmt{
					monitor.Assign{Var: "readernum", E: lang.IntLit(0)},
					monitor.If{
						Cond: monitor.QueueNonEmpty{Cond: "readqueue"},
						Then: []monitor.Stmt{monitor.Signal{Cond: "readqueue"}},
						Else: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
					},
				},
			},
		},
		Init: []monitor.Stmt{
			monitor.Assign{Var: "readernum", E: lang.IntLit(0)},
		},
	}
}

// writersPriorityMonitor blocks new readers while a writer waits or
// writes; end-of-write prefers waiting writers.
func writersPriorityMonitor() *monitor.Monitor {
	return &monitor.Monitor{
		Name:  MonitorName,
		Vars:  []string{"readernum", "waitingwriters", "writing"},
		Conds: []string{"readqueue", "writequeue"},
		Entries: []monitor.Entry{
			{
				Name: "StartRead",
				Body: []monitor.Stmt{
					monitor.If{
						Cond: lang.Bin{Op: lang.OpOr,
							L: lang.Bin{Op: lang.OpEq, L: lang.VarRef("writing"), R: lang.IntLit(1)},
							R: lang.Bin{Op: lang.OpGt, L: lang.VarRef("waitingwriters"), R: lang.IntLit(0)}},
						Then: []monitor.Stmt{monitor.Wait{Cond: "readqueue"}},
					},
					monitor.Assign{Var: "readernum", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("readernum"), R: lang.IntLit(1)}},
					monitor.If{
						Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("waitingwriters"), R: lang.IntLit(0)},
						Then: []monitor.Stmt{monitor.Signal{Cond: "readqueue"}},
					},
				},
			},
			{
				Name: "EndRead",
				Body: []monitor.Stmt{
					monitor.Assign{Var: "readernum", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("readernum"), R: lang.IntLit(1)}},
					monitor.If{
						Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("readernum"), R: lang.IntLit(0)},
						Then: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
					},
				},
			},
			{
				Name: "StartWrite",
				Body: []monitor.Stmt{
					monitor.If{
						Cond: lang.Bin{Op: lang.OpOr,
							L: lang.Bin{Op: lang.OpGt, L: lang.VarRef("readernum"), R: lang.IntLit(0)},
							R: lang.Bin{Op: lang.OpEq, L: lang.VarRef("writing"), R: lang.IntLit(1)}},
						Then: []monitor.Stmt{
							monitor.Assign{Var: "waitingwriters", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("waitingwriters"), R: lang.IntLit(1)}},
							monitor.Wait{Cond: "writequeue"},
							monitor.Assign{Var: "waitingwriters", E: lang.Bin{Op: lang.OpSub, L: lang.VarRef("waitingwriters"), R: lang.IntLit(1)}},
						},
					},
					monitor.Assign{Var: "writing", E: lang.IntLit(1)},
				},
			},
			{
				Name: "EndWrite",
				Body: []monitor.Stmt{
					monitor.Assign{Var: "writing", E: lang.IntLit(0)},
					monitor.If{
						Cond: monitor.QueueNonEmpty{Cond: "writequeue"},
						Then: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
						Else: []monitor.Stmt{monitor.Signal{Cond: "readqueue"}},
					},
				},
			},
		},
	}
}

// mutexOnlyMonitor serializes every operation through one busy flag.
func mutexOnlyMonitor() *monitor.Monitor {
	lock := func() []monitor.Stmt {
		return []monitor.Stmt{
			monitor.If{
				Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("busy"), R: lang.IntLit(1)},
				Then: []monitor.Stmt{monitor.Wait{Cond: "q"}},
			},
			monitor.Assign{Var: "busy", E: lang.IntLit(1)},
		}
	}
	unlock := func() []monitor.Stmt {
		return []monitor.Stmt{
			monitor.Assign{Var: "busy", E: lang.IntLit(0)},
			monitor.Signal{Cond: "q"},
		}
	}
	return &monitor.Monitor{
		Name:  MonitorName,
		Vars:  []string{"busy"},
		Conds: []string{"q"},
		Entries: []monitor.Entry{
			{Name: "StartRead", Body: lock()},
			{Name: "EndRead", Body: unlock()},
			{Name: "StartWrite", Body: lock()},
			{Name: "EndWrite", Body: unlock()},
		},
	}
}

// weakPriorityMonitor: readers share and ignore pending writers (like the
// paper's monitor), but end-of-write prefers pending writers — so neither
// priority discipline holds.
func weakPriorityMonitor() *monitor.Monitor {
	m := readersPriorityMonitor()
	for i, e := range m.Entries {
		if e.Name == "EndWrite" {
			m.Entries[i].Body = []monitor.Stmt{
				monitor.Assign{Var: "readernum", E: lang.IntLit(0)},
				monitor.If{
					Cond: monitor.QueueNonEmpty{Cond: "writequeue"},
					Then: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
					Else: []monitor.Stmt{monitor.Signal{Cond: "readqueue"}},
				},
			}
		}
	}
	return m
}

// serialReadersPriorityMonitor: reads are exclusive too, but pending
// reads still beat pending writes (end-of-write prefers the readqueue and
// end-of-read releases the next reader first).
func serialReadersPriorityMonitor() *monitor.Monitor {
	return &monitor.Monitor{
		Name:  MonitorName,
		Vars:  []string{"busy"},
		Conds: []string{"readqueue", "writequeue"},
		Entries: []monitor.Entry{
			{
				Name: "StartRead",
				Body: []monitor.Stmt{
					monitor.If{
						Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("busy"), R: lang.IntLit(1)},
						Then: []monitor.Stmt{monitor.Wait{Cond: "readqueue"}},
					},
					monitor.Assign{Var: "busy", E: lang.IntLit(1)},
				},
			},
			{
				Name: "EndRead",
				Body: []monitor.Stmt{
					monitor.Assign{Var: "busy", E: lang.IntLit(0)},
					monitor.If{
						Cond: monitor.QueueNonEmpty{Cond: "readqueue"},
						Then: []monitor.Stmt{monitor.Signal{Cond: "readqueue"}},
						Else: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
					},
				},
			},
			{
				Name: "StartWrite",
				Body: []monitor.Stmt{
					monitor.If{
						Cond: lang.Bin{Op: lang.OpEq, L: lang.VarRef("busy"), R: lang.IntLit(1)},
						Then: []monitor.Stmt{monitor.Wait{Cond: "writequeue"}},
					},
					monitor.Assign{Var: "busy", E: lang.IntLit(1)},
				},
			},
			{
				Name: "EndWrite",
				Body: []monitor.Stmt{
					monitor.Assign{Var: "busy", E: lang.IntLit(0)},
					monitor.If{
						Cond: monitor.QueueNonEmpty{Cond: "readqueue"},
						Then: []monitor.Stmt{monitor.Signal{Cond: "readqueue"}},
						Else: []monitor.Stmt{monitor.Signal{Cond: "writequeue"}},
					},
				},
			},
		},
	}
}

// Workload configures the client processes of a Readers/Writers program.
type Workload struct {
	Readers int
	Writers int
}

// NewProgram builds a monitor program for the variant with the given
// workload. Reader i is process "r<i>": StartRead, a Getval at the shared
// data element, EndRead. Writer j is "w<j>": StartWrite, an Assign of the
// distinct value 100+j, EndWrite.
func NewProgram(v Variant, w Workload) *monitor.Program {
	prog := &monitor.Program{Monitor: NewMonitor(v)}
	for i := 1; i <= w.Readers; i++ {
		prog.Processes = append(prog.Processes, monitor.Process{
			Name: fmt.Sprintf("r%d", i),
			Body: []monitor.ProcStmt{
				monitor.Call{Entry: "StartRead"},
				monitor.Op{Element: DataElement, Class: "Getval"},
				monitor.Call{Entry: "EndRead"},
			},
		})
	}
	for j := 1; j <= w.Writers; j++ {
		prog.Processes = append(prog.Processes, monitor.Process{
			Name: fmt.Sprintf("w%d", j),
			Body: []monitor.ProcStmt{
				monitor.Call{Entry: "StartWrite"},
				monitor.Op{Element: DataElement, Class: "Assign", Params: map[string]lang.Expr{"newval": lang.IntLit(100 + j)}},
				monitor.Call{Entry: "EndWrite"},
			},
		})
	}
	return prog
}
