package csp_test

import (
	"testing"

	"gem/internal/csp"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
)

// TestIndependentCommutes checks the sleep sets' independence relation
// against the semantics on the matrix programs.
func TestIndependentCommutes(t *testing.T) {
	for name, p := range map[string]*csp.Program{
		"one-slot-buffer": oneslot.NewCSPProgram(oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}),
		"bounded-buffer":  boundedbuf.NewCSPProgram(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}),
		"readers-writers": rw.NewCSPProgram(rw.Workload{Readers: 2, Writers: 1}),
	} {
		if err := csp.Commutes(p, 50); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
