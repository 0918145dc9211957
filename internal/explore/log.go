package explore

import "gem/internal/core"

// Log is a run's event log: events in emission order and the enables
// between them, with each process's events chained in program order.
// Machines embed it, which gives them Emit, Unrecorded and Build.
//
// A log shares what it has emitted with its clones instead of copying
// it. Clone freezes the events emitted since the last clone into a
// segment that the log and the clone both keep as their prefix, and each
// goes on emitting into a tail of its own, so a clone copies only its
// per-process chain heads.
//
// A log and all its clones intern their events' names and parameter
// lists in one table as they emit them, so every computation of one
// exploration shares that table, and Build looks nothing up.
type Log struct {
	names  *core.NameTable
	prefix *segment // frozen and shared with clones; nil until a Clone
	// numEvents and numEdges count the prefix's events and enables.
	numEvents, numEdges int
	// events and edges are the tail: what the log emitted since it last
	// froze. After a freeze the tail goes on in the spare capacity of the
	// frozen arrays, past the segment's length, where nothing reads it
	// but this log.
	events []event
	edges  [][2]int
	last   []int // per process: index of its latest event, -1 before any
	// unrecorded: the run took a choice its computation may not record
	unrecorded bool
}

// event is an emitted event: indices into the log's table.
type event struct {
	elem, class, params int32
}

// segment is a frozen stretch of a log: its events and the enables into
// them, after its parent's. Nothing writes to a segment once it exists.
type segment struct {
	parent *segment
	events []event
	edges  [][2]int
}

// NewLog returns an empty log for procs processes.
func NewLog(procs int) Log {
	last := make([]int, procs)
	for i := range last {
		last[i] = -1
	}
	return Log{names: core.NewNameTable(), last: last}
}

// Clone returns a copy that can keep emitting independently. Both logs
// share what l has emitted so far and never write to it again. They also
// share l's name table, which Emit appends to, so a log and its clones
// must emit on one goroutine; a computation that Build returns reads only
// its own snapshot of the table and may go to any goroutine.
func (l *Log) Clone() Log {
	if n, e := len(l.events), len(l.edges); n > 0 {
		l.prefix = &segment{parent: l.prefix, events: l.events, edges: l.edges}
		l.numEvents += n
		l.numEdges += e
		l.events, l.edges = l.events[n:], l.edges[e:]
	}
	return Log{
		names:     l.names,
		prefix:    l.prefix,
		numEvents: l.numEvents,
		numEdges:  l.numEdges,
		last:      append([]int(nil), l.last...),

		unrecorded: l.unrecorded,
	}
}

// Emit appends an event enabled by process proc's previous event (proc
// < 0 is no process) and by every extra event index ≥ 0; it returns the
// new event's index.
func (l *Log) Emit(proc int, elem, class string, params core.Params, extra ...int) int {
	idx := l.numEvents + len(l.events)
	t := l.names
	l.events = append(l.events, event{elem: t.Intern(elem), class: t.Intern(class), params: t.InternParams(params)})
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

// Build renders the log as a GEM computation on the log's table.
func (l *Log) Build() (*core.Computation, error) {
	b := l.names.Builder()
	b.Grow(l.numEvents+len(l.events), l.numEdges+len(l.edges))
	l.prefix.addTo(b)
	add(b, l.events, l.edges)
	return b.Build()
}

// addTo adds s's ancestors' events and enables to b, then its own.
func (s *segment) addTo(b *core.Builder) {
	if s == nil {
		return
	}
	s.parent.addTo(b)
	add(b, s.events, s.edges)
}

// add adds events to b, whose ids follow emission order, and edges.
func add(b *core.Builder, events []event, edges [][2]int) {
	for _, e := range events {
		b.Interned(e.elem, e.class, e.params)
	}
	for _, e := range edges {
		b.Enable(core.EventID(e[0]), core.EventID(e[1]))
	}
}

// Unrecorded marks the run as having taken a choice that its events may
// not record, so that another run of the walk may give the same
// computation (see Machine).
func (l *Log) Unrecorded() { l.unrecorded = true }

// eventLog returns l, so that a machine that embeds a Log implements
// Machine's eventLog.
func (l *Log) eventLog() *Log { return l }
