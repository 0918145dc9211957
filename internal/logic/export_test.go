package logic

import (
	"context"

	"gem/internal/core"
)

// Hooks for the tests of package logic_test, which compare this package
// with internal/oracle. The oracle imports logic, so the tests of package
// logic itself cannot import it.

// LatticeDecide runs the lattice engine alone, without the cascade of
// Holds around it.
func LatticeDecide(f Formula, c *core.Computation) (*Counterexample, bool) {
	return latticeDecide(context.Background(), f, c)
}

// BindEvent and BindThread return a child environment with one more
// binding.
func (e *Env) BindEvent(name string, id core.EventID) *Env { return e.bind(name, id) }
func (e *Env) BindThread(name, tid string) *Env            { return e.bindThread(name, tid) }

var (
	RandomComp            = randomComp
	RandImmediate         = randImmediate
	RandTemporal          = randTemporal
	RequireLatticeWitness = requireLatticeWitness
)
