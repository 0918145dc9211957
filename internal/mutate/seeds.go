package mutate

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
)

// Campaign seeds. Mutation needs small, legal substrates: the paper's
// Section 8 Readers/Writers problem (thread quantifiers, temporal □,
// value flow) and a compact bounded-buffer variant (COUNT and FIFO
// counting restrictions). Both computations are built fully or mostly
// serialized — the serializing cross edges keep the history lattice
// small, so a mutant checks in microseconds and a campaign of thousands
// stays fast.

// toySource is the bounded-buffer seed spec (capacity 1, one producer,
// one consumer), exercising the restriction shapes the rw problem does
// not: COUNT, FIFO, and the □-wrapped counting invariant.
const toySource = `
SPEC Toy

ELEMENT buffer
  EVENTS
    Deposit(item: VALUE)
    Fetch(item: VALUE)
END

ELEMENT prod
  EVENTS
    Produce(item: VALUE)
END

ELEMENT cons
  EVENTS
    Consume(item: VALUE)
END

GROUP buf MEMBERS(buffer)
  PORTS(buffer.Deposit, buffer.Fetch)
END

THREAD piDep = (Produce :: buffer.Deposit)

THREAD piFet = (buffer.Fetch :: Consume)

RESTRICTION "produce-value":
  ((FORALL p: prod.Produce) ((FORALL d: buffer.Deposit) (p |> d -> p.item = d.item))) ;

RESTRICTION "fetch-value":
  ((FORALL f: buffer.Fetch) ((FORALL c: cons.Consume) (f |> c -> f.item = c.item))) ;

RESTRICTION "capacity":
  [] (COUNT(buffer.Deposit - buffer.Fetch IN 0 .. 1)) ;

RESTRICTION "fifo":
  FIFO(buffer.Deposit.item -> buffer.Fetch.item) ;
`

// DefaultSeeds builds the standard campaign seed set.
func DefaultSeeds() ([]Seed, error) {
	rwSpec, err := rw.ProblemSpec([]string{"u1"}, false)
	if err != nil {
		return nil, err
	}
	read1, err := rwRead(rwSpec)
	if err != nil {
		return nil, err
	}
	serial, err := rwReadThenWrite(rwSpec)
	if err != nil {
		return nil, err
	}
	partial, err := rwWriteThenRead(rwSpec)
	if err != nil {
		return nil, err
	}
	toySpec, err := gemlang.Parse(toySource)
	if err != nil {
		return nil, fmt.Errorf("mutate: toy seed spec does not parse: %w", err)
	}
	if err := toySpec.Validate(); err != nil {
		return nil, fmt.Errorf("mutate: toy seed spec invalid: %w", err)
	}
	toy1, err := toyComp(toySpec, 1)
	if err != nil {
		return nil, err
	}
	toy2, err := toyComp(toySpec, 2)
	if err != nil {
		return nil, err
	}
	return []Seed{
		{Name: "rw", Spec: rwSpec, Comps: []*core.Computation{read1, serial, partial}},
		{Name: "toy", Spec: toySpec, Comps: []*core.Computation{toy1, toy2}},
	}, nil
}

// readChain appends u1's six-event read transaction observing value v.
func readChain(b *core.Builder, v int64) (first, end, last core.EventID) {
	r := b.Event("u1", "Read", core.Params{})
	rq := b.Event("db.control", "ReqRead", core.Params{})
	st := b.Event("db.control", "StartRead", core.Params{})
	gv := b.Event("db.data", "Getval", core.NewParams(core.P("oldval", core.Int(v))))
	en := b.Event("db.control", "EndRead", core.NewParams(core.P("info", core.Int(v))))
	fi := b.Event("u1", "FinishRead", core.NewParams(core.P("info", core.Int(v))))
	link(b, r, rq, st, gv, en, fi)
	return r, en, fi
}

// writeChain appends u1's six-event write transaction assigning v.
func writeChain(b *core.Builder, v int64) (first, end, last core.EventID) {
	w := b.Event("u1", "Write", core.NewParams(core.P("info", core.Int(v))))
	rq := b.Event("db.control", "ReqWrite", core.NewParams(core.P("info", core.Int(v))))
	st := b.Event("db.control", "StartWrite", core.NewParams(core.P("info", core.Int(v))))
	as := b.Event("db.data", "Assign", core.NewParams(core.P("newval", core.Int(v))))
	en := b.Event("db.control", "EndWrite", core.Params{})
	fi := b.Event("u1", "FinishWrite", core.Params{})
	link(b, w, rq, st, as, en, fi)
	return w, en, fi
}

func link(b *core.Builder, ids ...core.EventID) {
	for i := 1; i < len(ids); i++ {
		b.Enable(ids[i-1], ids[i])
	}
}

func finish(b *core.Builder, sp *spec.Spec) (*core.Computation, error) {
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	thread.Apply(c, sp.Threads()...)
	return c, nil
}

// rwRead is one read transaction — a 6-event chain, 7 histories.
func rwRead(sp *spec.Spec) (*core.Computation, error) {
	b := core.NewBuilder()
	readChain(b, 0)
	return finish(b, sp)
}

// rwReadThenWrite serializes a read before a write: the read's finish
// enables the write's first event, so the 12 events form one chain.
func rwReadThenWrite(sp *spec.Spec) (*core.Computation, error) {
	b := core.NewBuilder()
	_, _, fi := readChain(b, 0)
	w, _, _ := writeChain(b, 7)
	b.Enable(fi, w)
	return finish(b, sp)
}

// rwWriteThenRead serializes only at the control element: the write's
// EndWrite enables the read's StartRead, so the read's request runs
// concurrently with the write — a small but non-linear history lattice.
func rwWriteThenRead(sp *spec.Spec) (*core.Computation, error) {
	b := core.NewBuilder()
	_, en, _ := writeChain(b, 7)
	r := b.Event("u1", "Read", core.Params{})
	rq := b.Event("db.control", "ReqRead", core.Params{})
	st := b.Event("db.control", "StartRead", core.Params{})
	gv := b.Event("db.data", "Getval", core.NewParams(core.P("oldval", core.Int(7))))
	en2 := b.Event("db.control", "EndRead", core.NewParams(core.P("info", core.Int(7))))
	fi2 := b.Event("u1", "FinishRead", core.NewParams(core.P("info", core.Int(7))))
	link(b, r, rq, st, gv, en2, fi2)
	b.Enable(en, st)
	return finish(b, sp)
}

// toyComp runs n produce/deposit/fetch/consume rounds; round k+1's
// deposit waits for round k's fetch (the capacity-1 discipline).
func toyComp(sp *spec.Spec, n int) (*core.Computation, error) {
	b := core.NewBuilder()
	var prevFetch core.EventID = -1
	for i := 0; i < n; i++ {
		item := core.Int(int64(i + 1))
		p := b.Event("prod", "Produce", core.NewParams(core.P("item", item)))
		d := b.Event("buffer", "Deposit", core.NewParams(core.P("item", item)))
		f := b.Event("buffer", "Fetch", core.NewParams(core.P("item", item)))
		c := b.Event("cons", "Consume", core.NewParams(core.P("item", item)))
		link(b, p, d, f, c)
		if prevFetch >= 0 {
			b.Enable(prevFetch, d)
		}
		prevFetch = f
	}
	return finish(b, sp)
}
