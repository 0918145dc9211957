package ada_test

import (
	"testing"

	"gem/internal/ada"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
)

// TestIndependentCommutes checks the sleep sets' independence relation
// against the semantics on the matrix programs, and on a select whose
// else part races two callers of one entry.
func TestIndependentCommutes(t *testing.T) {
	for name, p := range map[string]*ada.Program{
		"one-slot-buffer": oneslot.NewAdaProgram(oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}),
		"bounded-buffer":  boundedbuf.NewAdaProgram(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}),
		"readers-writers": rw.NewAdaProgram(rw.Workload{Readers: 2, Writers: 1}),
		"select-else": {Tasks: []ada.Task{
			{Name: "server", Entries: []string{"Ping"}, Body: []ada.Stmt{
				ada.Select{
					Alts: []ada.SelectAlt{{Accept: ada.Accept{Entry: "Ping"}}},
					Else: []ada.Stmt{ada.Op{Class: "NoCaller"}},
				},
				ada.Accept{Entry: "Ping"},
			}},
			{Name: "c1", Body: []ada.Stmt{ada.EntryCall{Task: "server", Entry: "Ping"}}},
			{Name: "c2", Body: []ada.Stmt{ada.EntryCall{Task: "server", Entry: "Ping"}}},
		}},
	} {
		if err := ada.Commutes(p, 50); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
