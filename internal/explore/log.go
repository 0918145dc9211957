package explore

import (
	"fmt"

	"gem/internal/core"
)

// Log is a run's event log: events in emission order and the enables
// between them, with each process's events chained in program order.
// Machines embed it, which gives them Emit, Unrecorded, Key and Build.
type Log struct {
	events []event
	edges  [][2]int
	last   []int // per process: index of its latest event, -1 before any
	// unrecorded: the run took a choice its computation may not record
	unrecorded bool
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

		unrecorded: l.unrecorded,
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
	b.Grow(len(l.events))
	for _, e := range l.events {
		b.Event(e.elem, e.class, e.params) // ids follow emission order
	}
	for _, e := range l.edges {
		b.Enable(core.EventID(e[0]), core.EventID(e[1]))
	}
	return b.Build()
}

// Unrecorded marks the run as having taken a choice that its events may
// not record, so that another run of the walk may give the same
// computation (see Machine).
func (l *Log) Unrecorded() { l.unrecorded = true }

// Key reports whether the run is marked Unrecorded and, if it is,
// renders its computation (see Key).
func (l *Log) Key() (key string, marked bool, err error) {
	if !l.unrecorded {
		return "", false, nil
	}
	c, err := l.Build()
	if err != nil {
		return "", false, fmt.Errorf("explore: keying a marked run: %w", err)
	}
	return Key(c), true, nil
}
