package monitor_test

import (
	"testing"

	"gem/internal/monitor"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
)

// TestIndependentCommutes checks the sleep sets' independence relation
// against the semantics on the matrix programs and the writers-priority
// variant.
func TestIndependentCommutes(t *testing.T) {
	rww := rw.Workload{Readers: 2, Writers: 1}
	for name, p := range map[string]*monitor.Program{
		"one-slot-buffer":  oneslot.NewMonitorProgram(oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}),
		"bounded-buffer":   boundedbuf.NewMonitorProgram(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}),
		"readers-priority": rw.NewProgram(rw.ReadersPriority, rww),
		"writers-priority": rw.NewProgram(rw.WritersPriority, rww),
	} {
		if err := monitor.Commutes(p, 20); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
