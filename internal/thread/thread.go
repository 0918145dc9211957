// Package thread implements GEM's thread notation (Section 8.3 of the
// paper). A thread type is a path expression over event classes; each
// event matching the head of the path starts a fresh thread instance whose
// identifier is passed along enable edges as long as events enable one
// another in the prescribed class order. Thread identifiers let
// restrictions distinguish events caused by different requests — the key
// to expressing mutual exclusion and priority.
package thread

import (
	"fmt"

	"gem/internal/core"
)

// Type is a thread type: a name and the class path its instances follow,
// e.g. the paper's
//
//	piRW = (u.Read :: db.control.ReqRead :: db.control.StartRead :: …)
type Type struct {
	Name string
	Path []core.ClassRef
}

// Alternative paths: the paper's piRW covers both the read chain and the
// write chain; model that by declaring one Type per alternative with the
// same Name — instances are numbered across all alternatives of the name.

// Instance is one thread instance: its identifier and the events it
// labels, in discovery order (head first).
type Instance struct {
	ID     string
	Events []core.EventID
}

// ID builds the canonical thread-instance identifier, type + "#" + n.
// TypeOf parses it back; the logic package's thread quantifiers group
// instances by it.
func ID(threadType string, n int) string {
	return fmt.Sprintf("%s#%d", threadType, n)
}

// Apply labels the computation's events with thread instances of the given
// types and returns the instances. Types sharing a Name are alternatives
// of one thread type and share an instance counter. Labels are added to
// the events in place; existing labels are preserved.
func Apply(c *core.Computation, types ...Type) []Instance {
	counters := make(map[string]int)
	var out []Instance
	for _, tt := range types {
		if len(tt.Path) == 0 {
			continue
		}
		for _, head := range c.EventsOf(tt.Path[0]) {
			counters[tt.Name]++
			inst := Instance{ID: ID(tt.Name, counters[tt.Name])}
			inst.Events = traceFrom(c, tt, head)
			for _, id := range inst.Events {
				c.Label(id, inst.ID)
			}
			out = append(out, inst)
		}
	}
	return out
}

// PathsByType groups the paths of the given thread types by type name,
// preserving declaration order of the alternatives. Types sharing a Name
// are alternative paths of one thread type (see Apply); the deep
// analyzer consumes the grouped view to reason per type.
func PathsByType(types []Type) map[string][][]core.ClassRef {
	out := make(map[string][][]core.ClassRef)
	for _, tt := range types {
		if len(tt.Path) == 0 {
			continue
		}
		out[tt.Name] = append(out[tt.Name], tt.Path)
	}
	return out
}

// traceFrom follows the thread path from the head event, collecting every
// event the identifier is passed to. A (event, step) pair is visited at
// most once.
func traceFrom(c *core.Computation, tt Type, head core.EventID) []core.EventID {
	type node struct {
		ev   core.EventID
		step int
	}
	visited := map[node]bool{}
	var events []core.EventID
	queue := []node{{head, 0}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if visited[n] {
			continue
		}
		visited[n] = true
		events = append(events, n.ev)
		if n.step+1 >= len(tt.Path) {
			continue
		}
		next := tt.Path[n.step+1]
		for _, succ := range c.Enabled(n.ev) {
			if next.Matches(c.Event(succ)) {
				queue = append(queue, node{succ, n.step + 1})
			}
		}
	}
	return dedupe(events)
}

// Validate checks an already-labelled computation against the thread
// types: every event carrying an instance of a declared type must be
// reachable by that instance's path, every head event must carry exactly
// one fresh instance of the type, and instances must not share head
// events. It returns the first inconsistency found.
func Validate(c *core.Computation, types ...Type) error {
	// Recompute the expected labelling on a shadow map.
	expected := make(map[core.EventID]map[string]bool)
	counters := make(map[string]int)
	heads := make(map[string]core.EventID)
	for _, tt := range types {
		if len(tt.Path) == 0 {
			continue
		}
		for _, head := range c.EventsOf(tt.Path[0]) {
			counters[tt.Name]++
			tid := ID(tt.Name, counters[tt.Name])
			heads[tid] = head
			for _, id := range traceFrom(c, tt, head) {
				if expected[id] == nil {
					expected[id] = make(map[string]bool)
				}
				expected[id][tid] = true
			}
		}
	}
	declared := make(map[string]bool)
	for _, tt := range types {
		declared[tt.Name] = true
	}
	for i := 0; i < c.NumEvents(); i++ {
		e := c.Event(core.EventID(i))
		labels := e.Threads()
		for k := 0; k < labels.Len(); k++ {
			tid := labels.At(k)
			typ := TypeOf(tid)
			if !declared[typ] {
				continue // labels of undeclared types are out of scope
			}
			if !expected[e.ID()][tid] {
				return fmt.Errorf("thread: event %s carries %s but is not on that thread's path", e.Name(), tid)
			}
		}
	}
	for id, tids := range expected {
		for tid := range tids {
			if !c.Event(id).HasThread(tid) {
				return fmt.Errorf("thread: event %s should carry %s but does not", c.Event(id).Name(), tid)
			}
		}
	}
	return nil
}

// TypeOf returns the thread type of an instance identifier built by ID.
func TypeOf(tid string) string {
	for i := len(tid) - 1; i >= 0; i-- {
		if tid[i] == '#' {
			return tid[:i]
		}
	}
	return tid
}

func dedupe(ids []core.EventID) []core.EventID {
	seen := make(map[core.EventID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
