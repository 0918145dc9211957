package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"gem/internal/order"
)

// Computation is a GEM computation: a finite set of events together with
// the enable relation, the element order (events at one element are totally
// ordered by their Seq), and the derived temporal order — the transitive
// closure of enable ∪ element-order, which Build verifies is irreflexive.
type Computation struct {
	events  []*Event
	byElem  map[string][]EventID // events per element, ordered by Seq
	enables [][]EventID          // direct enable edges, adjacency by source

	reach []order.Bitset // strict temporal reachability (temporal order)
	preds []order.Bitset // inverse of reach

	derivedMu sync.Mutex
	derived   map[string]any
}

// Derived returns the derived datum cached under key, building it with
// build on first request. A computation is immutable once built, so
// derived data (e.g. its history lattice) is computed at most once and
// shared by every checker that needs it; the cache lives and dies with
// the computation.
//
// Contract: safe for concurrent use, and build runs at most once per
// key — ever. The per-computation mutex is held across the build, so
// concurrent callers for the same key block until the single build
// finishes and then all observe the identical value; no caller ever
// runs a duplicate build whose result is discarded. The same mutex
// serializes builds for different keys on one computation, so build
// must be a pure function of the (immutable) computation: it must not
// call Derived on the same computation, and it must not block on work
// that does. TestDerivedSingleBuild pins this contract under -race.
func (c *Computation) Derived(key string, build func() any) any {
	c.derivedMu.Lock()
	defer c.derivedMu.Unlock()
	if v, ok := c.derived[key]; ok {
		return v
	}
	if c.derived == nil {
		c.derived = make(map[string]any)
	}
	v := build()
	c.derived[key] = v
	return v
}

// NumEvents returns the number of events.
func (c *Computation) NumEvents() int { return len(c.events) }

// Event returns the event with the given id.
func (c *Computation) Event(id EventID) *Event { return c.events[int(id)] }

// Events returns all events in id order. The slice must not be modified.
func (c *Computation) Events() []*Event { return c.events }

// EventsAt returns the events at the named element in element order.
func (c *Computation) EventsAt(element string) []EventID { return c.byElem[element] }

// Elements returns the names of all elements with at least one event,
// sorted.
func (c *Computation) Elements() []string {
	out := make([]string, 0, len(c.byElem))
	for name := range c.byElem {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EventsOf returns the ids of events matching the class reference, in id
// order.
func (c *Computation) EventsOf(ref ClassRef) []EventID {
	var out []EventID
	for _, e := range c.events {
		if ref.Matches(e) {
			out = append(out, e.ID)
		}
	}
	return out
}

// EnablesDirect reports whether a directly enables b (a ⊳ b).
func (c *Computation) EnablesDirect(a, b EventID) bool {
	for _, t := range c.enables[int(a)] {
		if t == b {
			return true
		}
	}
	return false
}

// Enabled returns the direct enable successors of a. The slice must not be
// modified.
func (c *Computation) Enabled(a EventID) []EventID { return c.enables[int(a)] }

// ElemBefore reports whether a precedes b in the element order (same
// element, lower occurrence index).
func (c *Computation) ElemBefore(a, b EventID) bool {
	ea, eb := c.events[int(a)], c.events[int(b)]
	return ea.Element == eb.Element && ea.Seq < eb.Seq
}

// Temporal reports whether a strictly precedes b in the temporal order
// (a ⇒ b).
func (c *Computation) Temporal(a, b EventID) bool {
	return c.reach[int(a)].Has(int(b))
}

// Concurrent reports whether a and b are potentially concurrent: distinct
// and unordered by the temporal order.
func (c *Computation) Concurrent(a, b EventID) bool {
	return a != b && !c.Temporal(a, b) && !c.Temporal(b, a)
}

// Concurrency returns per-event concurrency rows: row e has bit f set
// iff e and f are potentially concurrent (distinct and temporally
// unordered). Memoized on the computation; the returned slice and sets
// must not be modified. Together with order.IsClique it decides whether
// an event set is pairwise concurrent in O(|set| × words) instead of
// O(|set|²) Temporal queries.
func (c *Computation) Concurrency() []order.Bitset {
	return c.Derived("core.concurrency", func() any {
		rows := order.NewRows(len(c.events))
		for e, row := range rows {
			row.Fill()
			row.Clear(e)
			row.AndNotWith(c.reach[e])
			row.AndNotWith(c.preds[e])
		}
		return rows
	}).([]order.Bitset)
}

// Reach returns the strict temporal reachability sets (indexable by event
// id). The returned slice and sets must not be modified.
func (c *Computation) Reach() []order.Bitset { return c.reach }

// Preds returns the strict temporal predecessor sets. The returned slice
// and sets must not be modified.
func (c *Computation) Preds() []order.Bitset { return c.preds }

// FullHistory returns the set of all event ids (the complete computation as
// a history).
func (c *Computation) FullHistory() order.Bitset {
	h := order.NewBitset(len(c.events))
	for i := range c.events {
		h.Set(i)
	}
	return h
}

// String renders a summary of the computation for diagnostics.
func (c *Computation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "computation: %d events\n", len(c.events))
	for _, e := range c.events {
		fmt.Fprintf(&sb, "  [%d] %s", e.ID, e)
		if len(c.enables[int(e.ID)]) > 0 {
			sb.WriteString(" |>")
			for _, t := range c.enables[int(e.ID)] {
				fmt.Fprintf(&sb, " %d", t)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Builder assembles a Computation. Events are appended per element in
// element order; enable edges may reference any previously created events.
type Builder struct {
	events  []Event
	seq     map[string]int // number of events per element so far
	enables [][2]EventID
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{seq: make(map[string]int)}
}

// Grow makes room for n more events and m more enables, so a caller
// that knows how many it will add allocates each list once, and Build
// keeps the events' array.
func (b *Builder) Grow(n, m int) {
	b.events = grow(b.events, n)
	b.enables = grow(b.enables, m)
}

// grow returns s with room for n more elements, in a new array of
// exactly that capacity if s has less.
func grow[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Event appends a new event at the named element with the given class and
// parameters, returning its id. Successive events at the same element are
// ordered by creation order (their Seq is the per-element occurrence
// index). The event keeps params itself: Params is immutable, so every
// computation built from one list shares it.
func (b *Builder) Event(element, class string, params Params) EventID {
	id := EventID(len(b.events))
	seq := b.seq[element]
	b.seq[element] = seq + 1
	b.events = append(b.events, Event{
		ID:      id,
		Element: element,
		Class:   class,
		Seq:     seq,
		Params:  params,
	})
	return id
}

// Enable records src ⊳ dst (src directly enables dst).
func (b *Builder) Enable(src, dst EventID) {
	b.enables = append(b.enables, [2]EventID{src, dst})
}

// Thread labels the event with a thread-instance identifier.
func (b *Builder) Thread(id EventID, tid string) {
	ev := &b.events[int(id)]
	if !ev.HasThread(tid) {
		ev.Threads = append(ev.Threads, tid)
	}
}

// Build derives the temporal order and validates that it is a strict
// partial order (irreflexive ⇔ the combined graph is acyclic). On success
// the builder should not be reused.
//
// Each part of the computation is one allocation whatever its number of
// events: the events, the per-element event lists, the enable lists and
// the reach and pred rows. Explorers hold thousands of computations at
// once, and every object in them is one the collector marks on every
// cycle.
func (b *Builder) Build() (*Computation, error) {
	n := len(b.events)
	outdeg := make([]int, n)
	for _, e := range b.enables {
		src, dst := int(e[0]), int(e[1])
		if src < 0 || src >= n || dst < 0 || dst >= n {
			return nil, fmt.Errorf("core: enable edge (%d,%d) references unknown event", src, dst)
		}
		if src == dst {
			return nil, fmt.Errorf("core: event %d cannot enable itself", src)
		}
		outdeg[src]++
	}
	// Each source's list is a window of flat, capped at its length once
	// filled, so no append can run into its neighbour's.
	flat := make([]EventID, len(b.enables))
	adj := make([][]EventID, n)
	off := 0
	for src, d := range outdeg {
		adj[src] = flat[off : off : off+d]
		off += d
	}
	// Every event but the first at its element follows its predecessor
	// there: n - len(b.seq) element edges besides the enables.
	dag := order.NewDAG(n)
	dag.Grow(len(b.enables) + n - len(b.seq))
	for _, e := range b.enables {
		src := int(e[0])
		dag.AddEdge(src, int(e[1]))
		if !containsID(adj[src], e[1]) {
			adj[src] = append(adj[src], e[1])
		}
	}
	for src, targets := range adj {
		adj[src] = targets[:len(targets):len(targets)]
	}
	// Element order: each event follows the previous one at its element.
	// The per-element lists are windows of one array, like adj.
	byElem := make(map[string][]EventID, len(b.seq))
	perElem := make([]EventID, n)
	off = 0
	for elem, k := range b.seq {
		byElem[elem] = perElem[off : off : off+k]
		off += k
	}
	for i := range b.events {
		e := &b.events[i]
		ids := byElem[e.Element]
		if e.Seq > 0 {
			dag.AddEdge(int(ids[e.Seq-1]), i)
		}
		byElem[e.Element] = append(ids, e.ID)
	}
	reach, err := dag.TransitiveClosure()
	if err != nil {
		return nil, fmt.Errorf("core: temporal order is not irreflexive: %w", err)
	}
	events := b.events
	if cap(events) > n {
		// Copy the events out of the builder's grown array so the
		// computation keeps exactly n of them.
		events = make([]Event, n)
		copy(events, b.events)
	}
	ptrs := make([]*Event, n)
	for i := range events {
		ptrs[i] = &events[i]
	}
	return &Computation{
		events:  ptrs,
		byElem:  byElem,
		enables: adj,
		reach:   reach,
		preds:   order.Invert(reach),
	}, nil
}

func containsID(xs []EventID, x EventID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
