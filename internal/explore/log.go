package explore

import (
	"fmt"
	"sort"
	"strings"

	"gem/internal/core"
)

// Log is a run's event log: events in emission order and the enables
// between them, with each process's events chained in program order.
// Machines embed it, which gives them Emit, Key and Build.
type Log struct {
	events []event
	edges  [][2]int
	last   []int // per process: index of its latest event, -1 before any
}

type event struct {
	elem   string
	class  string
	params core.Params
}

// NewLog returns an empty log for procs processes.
func NewLog(procs int) Log {
	last := make([]int, procs)
	for i := range last {
		last[i] = -1
	}
	return Log{last: last}
}

// Clone returns a copy that can keep emitting independently. The
// emitted prefix is shared: capping the slices at their length makes the
// first append on either side copy.
func (l *Log) Clone() Log {
	return Log{
		events: l.events[:len(l.events):len(l.events)],
		edges:  l.edges[:len(l.edges):len(l.edges)],
		last:   append([]int(nil), l.last...),
	}
}

// Emit appends an event enabled by process proc's previous event (proc
// < 0 is no process) and by every extra event index ≥ 0; it returns the
// new event's index.
func (l *Log) Emit(proc int, elem, class string, params core.Params, extra ...int) int {
	idx := len(l.events)
	l.events = append(l.events, event{elem: elem, class: class, params: params})
	if proc >= 0 && l.last[proc] >= 0 {
		l.edges = append(l.edges, [2]int{l.last[proc], idx})
	}
	for _, e := range extra {
		if e >= 0 {
			l.edges = append(l.edges, [2]int{e, idx})
		}
	}
	if proc >= 0 {
		l.last[proc] = idx
	}
	return idx
}

// Build renders the log as a GEM computation.
func (l *Log) Build() (*core.Computation, error) {
	b := core.NewBuilder()
	ids := make([]core.EventID, len(l.events))
	for i, e := range l.events {
		ids[i] = b.Event(e.elem, e.class, e.params)
	}
	for _, e := range l.edges {
		b.Enable(ids[e[0]], ids[e[1]])
	}
	return b.Build()
}

// Key identifies the run's partial order: events keyed by (element,
// per-element occurrence index) with sorted edges, so different
// interleavings of the same computation collapse.
func (l *Log) Key() string {
	perElem := make(map[string]int)
	labels := make([]string, len(l.events))
	for i, e := range l.events {
		labels[i] = fmt.Sprintf("%s^%d:%s%s", e.elem, perElem[e.elem], e.class, e.params)
		perElem[e.elem]++
	}
	var sb strings.Builder
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	for _, s := range sorted {
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	edgeLabels := make([]string, len(l.edges))
	for i, e := range l.edges {
		edgeLabels[i] = labels[e[0]] + ">" + labels[e[1]]
	}
	sort.Strings(edgeLabels)
	for _, s := range edgeLabels {
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}
