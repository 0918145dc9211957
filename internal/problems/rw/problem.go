package rw

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/logic"
	"gem/internal/spec"
	"gem/internal/thread"
)

// This file builds the paper's Section 8 GEM problem specification of the
// Readers/Writers problem: User and RWControl element types, the database
// group, the πRW thread, the operation chains, the mutual-exclusion
// restriction, and (for the readers-priority version) the priority
// restriction — stated, as in the paper, with thread quantifiers and the
// temporal operator □ over valid history sequences.
//
// The paper's data[loc:1..N] array is specialised to a single location
// (loc plays no role in the synchronization properties being verified).

// problemSource renders the structural part of the problem spec in the
// gemlang concrete syntax for the named users.
func problemSource(users []string) string {
	var sb strings.Builder
	sb.WriteString(`SPEC RWProblem

ELEMENT TYPE User
  EVENTS
    Read
    FinishRead(info: VALUE)
    Write(info: VALUE)
    FinishWrite
END

ELEMENT db.control
  EVENTS
    ReqRead
    StartRead
    EndRead(info: VALUE)
    ReqWrite(info: VALUE)
    StartWrite(info: VALUE)
    EndWrite
END

ELEMENT db.data : Variable

GROUP db MEMBERS(db.control, db.data)
  PORTS(db.control.ReqRead, db.control.ReqWrite)
END

THREAD piRW = (Read :: db.control.ReqRead :: db.control.StartRead ::
               db.data.Getval :: db.control.EndRead :: FinishRead)
THREAD piRW = (Write :: db.control.ReqWrite :: db.control.StartWrite ::
               db.data.Assign :: db.control.EndWrite :: FinishWrite)
`)
	for _, u := range users {
		fmt.Fprintf(&sb, "ELEMENT %s : User\n", u)
	}
	// Operation chains (paper's restrictions 1 and 2): each step of a
	// transaction is the unique prerequisite of the next.
	var reads, writes []string
	for _, u := range users {
		reads = append(reads, u+".Read")
		writes = append(writes, u+".Write")
	}
	fmt.Fprintf(&sb, `
RESTRICTION "read-requests": NDPREREQ({%s} -> db.control.ReqRead) ;
RESTRICTION "write-requests": NDPREREQ({%s} -> db.control.ReqWrite) ;
RESTRICTION "read-chain":
  PREREQ(db.control.ReqRead -> db.control.StartRead -> db.data.Getval -> db.control.EndRead) ;
RESTRICTION "write-chain":
  PREREQ(db.control.ReqWrite -> db.control.StartWrite -> db.data.Assign -> db.control.EndWrite) ;
`, strings.Join(reads, ", "), strings.Join(writes, ", "))
	for _, u := range users {
		fmt.Fprintf(&sb, "RESTRICTION \"%s-finishes\": PREREQ(db.control.EndRead -> %s.FinishRead) & PREREQ(db.control.EndWrite -> %s.FinishWrite) ;\n", u, u, u)
	}
	return sb.String()
}

// Variable element type in gemlang, prepended so "ELEMENT db.data :
// Variable" resolves.
const variableTypeSource = `
ELEMENT TYPE Variable
  EVENTS
    Assign(newval: VALUE)
    Getval(oldval: VALUE)
  RESTRICTIONS
    "reads-last-assign":
      (FORALL assign: Assign, getval: Getval)
        (assign ~> getval &
         ~((EXISTS assign2: Assign) (assign ~> assign2 & assign2 ~> getval)))
        -> assign.newval = getval.oldval ;
END
`

// The paper's Section 8.3 mutual-exclusion restriction, split into its
// two clauses: writers exclude readers, and writers exclude writers.
// Each is an invariant over histories with thread quantifiers.
const writersExcludeReadersSource = `
  (FORALLTHREAD ti: piRW, tj: piRW)
    distinct(ti, tj) ->
    ~( ((EXISTS sr: db.control.StartRead) (sr in ti & occurred(sr)
         & ~((EXISTS er: db.control.EndRead) (er in ti & occurred(er)))))
     & ((EXISTS sw: db.control.StartWrite) (sw in tj & occurred(sw)
         & ~((EXISTS ew: db.control.EndWrite) (ew in tj & occurred(ew))))) )
`

const writersExcludeWritersSource = `
  (FORALLTHREAD ti: piRW, tj: piRW)
    distinct(ti, tj) ->
    ~( ((EXISTS s1: db.control.StartWrite) (s1 in ti & occurred(s1)
         & ~((EXISTS e1: db.control.EndWrite) (e1 in ti & occurred(e1)))))
     & ((EXISTS s2: db.control.StartWrite) (s2 in tj & occurred(s2)
         & ~((EXISTS e2: db.control.EndWrite) (e2 in tj & occurred(e2))))) )
`

// readersPrioritySource is the paper's readers-priority restriction: if a
// read request and a write request are pending at the same time, the read
// must be serviced before the write. "Pending" is the paper's
// intermediate-control-point 'reqread at StartRead'.
const readersPrioritySource = `
  [] (FORALLTHREAD ti: piRW, tj: piRW)
     ( ((EXISTS rr: db.control.ReqRead) (rr in ti & rr at db.control.StartRead))
     & ((EXISTS rw: db.control.ReqWrite) (rw in tj & rw at db.control.StartWrite)) )
     -> [] ( ((EXISTS sw: db.control.StartWrite) (sw in tj & occurred(sw)))
             -> ((EXISTS sr: db.control.StartRead) (sr in ti & occurred(sr))) )
`

// ProblemSpec builds the Section 8 problem specification for the named
// users. When withPriority is true, the readers-priority restriction is
// included (the paper's Reader's Priority version); the mutual-exclusion
// restriction is always included.
func ProblemSpec(users []string, withPriority bool) (*spec.Spec, error) {
	src := variableTypeSource + problemSource(users)
	s, err := gemlang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("rw: problem spec does not parse: %w", err)
	}
	wer, err := gemlang.ParseFormula(writersExcludeReadersSource)
	if err != nil {
		return nil, fmt.Errorf("rw: writers-exclude-readers formula: %w", err)
	}
	weww, err := gemlang.ParseFormula(writersExcludeWritersSource)
	if err != nil {
		return nil, fmt.Errorf("rw: writers-exclude-writers formula: %w", err)
	}
	// The paper's invariants hold at every history: wrap in □.
	s.AddRestriction("writers-exclude-readers", logic.Box{F: wer})
	s.AddRestriction("writers-exclude-writers", logic.Box{F: weww})
	if withPriority {
		rp, err := gemlang.ParseFormula(readersPrioritySource)
		if err != nil {
			return nil, fmt.Errorf("rw: readers-priority formula: %w", err)
		}
		s.AddRestriction("readers-priority", rp)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("rw: problem spec invalid: %w", err)
	}
	return s, nil
}

// Transaction describes one user operation for building problem-level
// computations.
type Transaction struct {
	User  string // user element name
	Write bool   // read or write
	Value int64
	// After, when >= 0, forces this transaction's Start to come after the
	// After-th transaction's End (index into the slice) — used to model
	// serialization decisions made by a solution.
	After int
}

// BuildComputation constructs a problem-level computation realizing the
// given transactions, serialized in slice order at the control element
// (the GEM events of Section 8, fully chained, with πRW threads applied).
// It is used to exercise the problem spec directly (experiment E3).
func BuildComputation(s *spec.Spec, txs []Transaction) (*core.Computation, error) {
	b := core.NewBuilder()
	value := int64(0) // current database value
	for _, tx := range txs {
		user := tx.User
		if tx.Write {
			w := b.Event(user, "Write", core.NewParams(core.P("info", core.Int(tx.Value))))
			rq := b.Event("db.control", "ReqWrite", core.NewParams(core.P("info", core.Int(tx.Value))))
			st := b.Event("db.control", "StartWrite", core.NewParams(core.P("info", core.Int(tx.Value))))
			as := b.Event("db.data", "Assign", core.NewParams(core.P("newval", core.Int(tx.Value))))
			en := b.Event("db.control", "EndWrite", core.Params{})
			fi := b.Event(user, "FinishWrite", core.Params{})
			chain(b, w, rq, st, as, en, fi)
			value = tx.Value
		} else {
			r := b.Event(user, "Read", core.Params{})
			rq := b.Event("db.control", "ReqRead", core.Params{})
			st := b.Event("db.control", "StartRead", core.Params{})
			gv := b.Event("db.data", "Getval", core.NewParams(core.P("oldval", core.Int(value))))
			en := b.Event("db.control", "EndRead", core.NewParams(core.P("info", core.Int(value))))
			fi := b.Event(user, "FinishRead", core.NewParams(core.P("info", core.Int(value))))
			chain(b, r, rq, st, gv, en, fi)
		}
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	thread.Apply(c, s.Threads()...)
	return c, nil
}

func chain(b *core.Builder, ids ...core.EventID) {
	for i := 1; i < len(ids); i++ {
		b.Enable(ids[i-1], ids[i])
	}
}
