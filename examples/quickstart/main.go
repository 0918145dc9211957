// Quickstart: build a small GEM computation by hand, inspect its orders,
// enumerate its histories and valid history sequences, and check a
// specification written in the concrete GEM syntax against it.
//
// The scenario is the paper's running example: an integer variable Var
// with Assign and Getval events, written to by one process and read by
// another. The element order serializes the accesses even though the
// processes never synchronize.
package main

import (
	"fmt"
	"log"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/history"
	"gem/internal/legal"
)

const specSource = `
SPEC quickstart

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

ELEMENT Var : Variable
ELEMENT writer EVENTS Work END
ELEMENT reader EVENTS Use(v: VALUE) END
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Compile the specification from the paper-style concrete syntax.
	spec, err := gemlang.Parse(specSource)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	fmt.Println("compiled specification:", spec.Name)

	// 2. Build a computation: the writer assigns 5 then 7; the reader
	// reads between the two assignments and uses the value. build takes
	// the value the read reports.
	var work, a1, g, use, a2 core.EventID
	build := func(read int64) (*core.Computation, error) {
		b := core.NewBuilder()
		work = b.Event("writer", "Work", core.Params{})
		a1 = b.Event("Var", "Assign", core.NewParams(core.P("newval", core.Int(5))))
		g = b.Event("Var", "Getval", core.NewParams(core.P("oldval", core.Int(read))))
		use = b.Event("reader", "Use", core.NewParams(core.P("v", core.Int(5))))
		a2 = b.Event("Var", "Assign", core.NewParams(core.P("newval", core.Int(7))))
		b.Enable(work, a1) // the writer's work enables the first assignment
		b.Enable(a1, a2)   // and its own second assignment
		b.Enable(g, use)   // the read enables the reader's use
		return b.Build()
	}
	c, err := build(5)
	if err != nil {
		return err
	}
	fmt.Print(c)

	// 3. Inspect the three orders of Section 5.
	fmt.Println("\norders:")
	fmt.Printf("  a1 |> a2 (enable):        %v\n", c.EnablesDirect(a1, a2))
	fmt.Printf("  a1 ~> g  (element order): %v\n", c.ElemBefore(a1, g))
	fmt.Printf("  work => use (temporal):   %v\n", c.Temporal(work, use))
	fmt.Printf("  work || g (concurrent):   %v\n", c.Concurrent(work, g))

	// 4. Histories and valid history sequences (Section 7).
	fmt.Printf("\nhistories: %d\n", history.Count(c))
	fmt.Printf("maximal valid history sequences: %d\n", history.CountComplete(c))

	// 5. Legality: the computation obeys the Variable restriction...
	res := legal.Check(spec, c, legal.Options{})
	fmt.Printf("\nlegal(C, σ) = %v\n", res.Legal())

	// ...and a stale read is refuted. A built computation is immutable,
	// so the corrupt read is a second computation.
	stale, err := build(99)
	if err != nil {
		return err
	}
	res = legal.Check(spec, stale, legal.Options{})
	fmt.Printf("after corrupting the read: legal(C, σ) = %v\n", res.Legal())
	if res.Legal() {
		return fmt.Errorf("quickstart: corruption not detected")
	}
	fmt.Println("violation:", res.Violations[0].Restriction)
	return nil
}
