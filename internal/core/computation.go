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
//
// A computation stores a partial order over event indices: integers and
// bit rows, with each name stored once. Explorers hold thousands of
// computations at once, and the collector marks every pointer in them on
// every cycle, so none of the per-event or per-row arrays below holds one.
// An event names its element, class and parameters by index into names
// and params, the snapshot of its NameTable that Build took.
type Computation struct {
	events []event
	names  []string
	params []Params

	// offsets and targets hold the enable lists and the element order in
	// compressed sparse rows. Event i directly enables
	// targets[offsets[i]:offsets[i+1]]. After those n+1 offsets, offsets
	// holds the elements (see elements), and the last n targets are the
	// events grouped by element (see byElem).
	offsets []int32
	targets []EventID

	reach order.Rows // strict temporal reachability (temporal order)
	preds order.Rows // inverse of reach

	labels *labels // thread labels; nil until the first Label

	derived   map[string]any
	derivedMu sync.Mutex
}

// event is one event's record: indices into its computation's names and
// params.
type event struct {
	elem, class int32
	seq         int32 // occurrence index at its element
	params      int32
}

// labels holds a computation's thread labels. Event i carries
// tids[k] for each k in ids[spans[i].off:][:spans[i].n], in labelling
// order.
type labels struct {
	tids  []string // each label once, in order of first use
	spans []span
	ids   []int32
}

type span struct{ off, n int32 }

// of returns the indices into tids of event id's labels.
func (l *labels) of(id EventID) []int32 {
	s := l.spans[id]
	return l.ids[s.off : s.off+s.n : s.off+s.n]
}

// Derived returns the derived datum cached under key, building it with
// build on first request. A computation is immutable once built, save
// for Label, which must come before any Derived or Fingerprint call, so
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

// Event returns a view of the event with the given id.
func (c *Computation) Event(id EventID) Event {
	_ = c.events[id] // an id out of range fails here, as it did on access
	return Event{c: c, id: id}
}

// elements returns the computation's elements in order of first
// occurrence, as indices into names, and where each one's events start
// in byElem, with one more offset for the end of the last.
func (c *Computation) elements() (names, at []int32) {
	n := len(c.events)
	k := (len(c.offsets) - n - 2) / 2
	return c.offsets[n+1 : n+1+k], c.offsets[n+1+k:]
}

// byElem returns the events grouped by element, in the order of
// elements, each group in element order.
func (c *Computation) byElem() []EventID { return c.targets[len(c.targets)-len(c.events):] }

// EventsAt returns the events at the named element in element order.
func (c *Computation) EventsAt(element string) []EventID {
	names, at := c.elements()
	for k, name := range names {
		if c.names[name] == element {
			lo, hi := at[k], at[k+1]
			return c.byElem()[lo:hi:hi]
		}
	}
	return nil
}

// Elements returns the names of all elements with at least one event,
// sorted.
func (c *Computation) Elements() []string {
	names, _ := c.elements()
	out := make([]string, len(names))
	for k, name := range names {
		out[k] = c.names[name]
	}
	sort.Strings(out)
	return out
}

// EventsOf returns the ids of events matching the class reference, in id
// order.
func (c *Computation) EventsOf(ref ClassRef) []EventID {
	class, elem := c.nameIndex(ref.Class), c.nameIndex(ref.Element)
	if class == absent || elem == absent {
		return nil
	}
	n := 0
	for _, e := range c.events {
		if (class == anyName || e.class == class) && (elem == anyName || e.elem == elem) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]EventID, 0, n)
	for i, e := range c.events {
		if (class == anyName || e.class == class) && (elem == anyName || e.elem == elem) {
			out = append(out, EventID(i))
		}
	}
	return out
}

const (
	anyName = -1 // nameIndex of "", which matches any name
	absent  = -2 // nameIndex of a name no event of c carries
)

// nameIndex returns the index of s among c's names.
func (c *Computation) nameIndex(s string) int32 {
	if s == "" {
		return anyName
	}
	for i, n := range c.names {
		if n == s {
			return int32(i)
		}
	}
	return absent
}

// EnablesDirect reports whether a directly enables b (a ⊳ b).
func (c *Computation) EnablesDirect(a, b EventID) bool {
	for _, t := range c.Enabled(a) {
		if t == b {
			return true
		}
	}
	return false
}

// Enabled returns the direct enable successors of a. The slice must not be
// modified.
func (c *Computation) Enabled(a EventID) []EventID {
	lo, hi := c.offsets[a], c.offsets[a+1]
	return c.targets[lo:hi:hi]
}

// ElemBefore reports whether a precedes b in the element order (same
// element, lower occurrence index).
func (c *Computation) ElemBefore(a, b EventID) bool {
	ea, eb := c.events[a], c.events[b]
	return ea.elem == eb.elem && ea.seq < eb.seq
}

// Temporal reports whether a strictly precedes b in the temporal order
// (a ⇒ b).
func (c *Computation) Temporal(a, b EventID) bool {
	return c.reach.Has(int(a), int(b))
}

// Concurrent reports whether a and b are potentially concurrent: distinct
// and unordered by the temporal order.
func (c *Computation) Concurrent(a, b EventID) bool {
	return a != b && !c.Temporal(a, b) && !c.Temporal(b, a)
}

// Concurrency returns per-event concurrency rows: row e has bit f set
// iff e and f are potentially concurrent (distinct and temporally
// unordered). Memoized on the computation; the rows must not be
// modified. Together with order.IsClique it decides whether an event set
// is pairwise concurrent in O(|set| × words) instead of O(|set|²)
// Temporal queries.
func (c *Computation) Concurrency() order.Rows {
	return c.Derived("core.concurrency", func() any {
		rows := order.NewRows(len(c.events))
		for e := range c.events {
			row := rows.Row(e)
			row.Fill()
			row.Clear(e)
			row.AndNotWith(c.reach.Row(e))
			row.AndNotWith(c.preds.Row(e))
		}
		return rows
	}).(order.Rows)
}

// Reach returns the strict temporal reachability rows (row e holds the
// events e precedes). The rows must not be modified.
func (c *Computation) Reach() order.Rows { return c.reach }

// Preds returns the strict temporal predecessor rows. The rows must not
// be modified.
func (c *Computation) Preds() order.Rows { return c.preds }

// FullHistory returns the set of all event ids (the complete computation as
// a history).
func (c *Computation) FullHistory() order.Bitset {
	h := order.NewBitset(len(c.events))
	h.Fill()
	return h
}

// Label labels event id with a thread-instance identifier; an event
// keeps each label once, in labelling order. It is the one way a
// computation changes after Build, and it must happen before the
// computation is shared or fingerprinted (see Fingerprint).
func (c *Computation) Label(id EventID, tid string) {
	if c.labels == nil {
		c.labels = &labels{spans: make([]span, len(c.events))}
	}
	l := c.labels
	k := l.tidIndex(tid)
	s := l.spans[id]
	have := l.ids[s.off : s.off+s.n]
	for _, x := range have {
		if x == k {
			return
		}
	}
	// An event's labels stay contiguous: a list that does not end the
	// array moves to its end (lists are a label or two long).
	if s.n == 0 || int(s.off+s.n) != len(l.ids) {
		off := int32(len(l.ids))
		l.ids = append(l.ids, have...)
		s.off = off
	}
	l.ids = append(l.ids, k)
	s.n++
	l.spans[id] = s
}

// Instances returns the distinct thread-instance identifiers labelling
// the computation's events, in order of first appearance: by event id,
// then in each event's labelling order. The slice is the caller's.
func (c *Computation) Instances() []string {
	l := c.labels
	if l == nil {
		return nil
	}
	out := make([]string, 0, len(l.tids))
	seen := make([]bool, len(l.tids))
	for i := range c.events {
		for _, k := range l.of(EventID(i)) {
			if !seen[k] {
				seen[k] = true
				out = append(out, l.tids[k])
			}
		}
	}
	return out
}

// tidIndex returns tid's index in tids, adding it if it is new. Labels
// come in runs of one identifier (a thread instance at a time), so the
// last one is tried first.
func (l *labels) tidIndex(tid string) int32 {
	if n := len(l.tids); n > 0 && l.tids[n-1] == tid {
		return int32(n - 1)
	}
	for k, t := range l.tids {
		if t == tid {
			return int32(k)
		}
	}
	l.tids = append(l.tids, tid)
	return int32(len(l.tids) - 1)
}

// String renders a summary of the computation for diagnostics.
func (c *Computation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "computation: %d events\n", len(c.events))
	for i := range c.events {
		id := EventID(i)
		fmt.Fprintf(&sb, "  [%d] %s", id, c.Event(id))
		if targets := c.Enabled(id); len(targets) > 0 {
			sb.WriteString(" |>")
			for _, t := range targets {
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
	table   *NameTable
	own     NameTable // the table of a builder from NewBuilder
	events  []event
	enables [][2]EventID
	threads []pendingLabel
}

type pendingLabel struct {
	id  EventID
	tid string
}

// NewBuilder returns an empty builder with a name table of its own.
func NewBuilder() *Builder {
	b := new(Builder)
	b.table = &b.own
	return b
}

// Builder returns an empty builder on t: the computations it builds name
// their elements, classes and parameters through t.
func (t *NameTable) Builder() *Builder { return &Builder{table: t} }

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
// index).
func (b *Builder) Event(element, class string, params Params) EventID {
	t := b.table
	return b.Interned(t.Intern(element), t.Intern(class), t.InternParams(params))
}

// Interned is Event for an element, class and parameter list already
// interned in the builder's table: it returns the new event's id and
// looks nothing up.
func (b *Builder) Interned(element, class, params int32) EventID {
	id := EventID(len(b.events))
	b.events = append(b.events, event{elem: element, class: class, params: params})
	return id
}

// Enable records src ⊳ dst (src directly enables dst).
func (b *Builder) Enable(src, dst EventID) {
	b.enables = append(b.enables, [2]EventID{src, dst})
}

// Thread labels the event with a thread-instance identifier; Build
// applies the labels with Label, in the order given.
func (b *Builder) Thread(id EventID, tid string) {
	b.threads = append(b.threads, pendingLabel{id, tid})
}

// Build derives the temporal order and validates that it is a strict
// partial order (irreflexive ⇔ the combined graph is acyclic). On success
// the builder should not be reused.
//
// A built computation is a few flat arrays whatever its number of
// events, none of which the collector scans: the events, one int32 array
// of offsets (enables and elements), one EventID array of targets
// (enables, then the events by element), and one array of words for the
// reach and pred rows.
func (b *Builder) Build() (*Computation, error) {
	n, m := len(b.events), len(b.enables)
	for _, e := range b.enables {
		src, dst := int(e[0]), int(e[1])
		if src < 0 || src >= n || dst < 0 || dst >= n {
			return nil, fmt.Errorf("core: enable edge (%d,%d) references unknown event", src, dst)
		}
		if src == dst {
			return nil, fmt.Errorf("core: event %d cannot enable itself", src)
		}
	}
	// Number each event at its element, and count the elements. at is
	// indexed by name: the events so far at that element, and then,
	// once the elements are laid out, the offset of its first event in
	// byElem. fill, per event, is the end of its enable list so far.
	t := b.table
	at := make([]int32, len(t.names)+n)
	at, fill := at[:len(t.names)], at[len(t.names):]
	events := b.events
	elems := 0
	for i := range events {
		e := &events[i]
		e.seq = at[e.elem]
		at[e.elem]++
		if e.seq == 0 {
			elems++
		}
	}
	if cap(events) > n {
		// Copy the events out of the builder's grown array so the
		// computation keeps exactly n of them.
		events = make([]event, n)
		copy(events, b.events)
	}
	offsets := make([]int32, (n+1)+elems+(elems+1))
	ids := make([]EventID, m+n)
	c := &Computation{
		events:  events,
		names:   t.names[:len(t.names):len(t.names)],
		params:  t.params[:len(t.params):len(t.params)],
		offsets: offsets,
		targets: ids,
	}
	enableAt := offsets[:n+1]
	elemNames, elemAt := c.elements()
	byElem := c.byElem()
	// Enable lists in insertion order without repeats: count, lay the
	// lists out, then fill each.
	for _, e := range b.enables {
		enableAt[e[0]+1]++
	}
	for i := 1; i <= n; i++ {
		enableAt[i] += enableAt[i-1]
	}
	copy(fill, enableAt[:n])
	kept := 0
	for _, e := range b.enables {
		src := e[0]
		if containsID(ids[enableAt[src]:fill[src]], e[1]) {
			continue
		}
		ids[fill[src]] = e[1]
		fill[src]++
		kept++
	}
	if kept < m {
		// Close the gaps repeats left: each list moves down to follow
		// the previous one.
		w := int32(0)
		for i := 0; i < n; i++ {
			lo, hi := enableAt[i], fill[i]
			enableAt[i] = w
			w += int32(copy(ids[w:], ids[lo:hi]))
		}
		enableAt[n] = w
	}
	// Elements in order of first occurrence, then each one's events.
	k := 0
	for i, e := range events {
		if e.seq == 0 {
			elemNames[k] = e.elem
			elemAt[k+1] = elemAt[k] + at[e.elem]
			at[e.elem] = elemAt[k]
			k++
		}
		byElem[at[e.elem]+e.seq] = EventID(i)
	}
	// The temporal order is the closure of the enables and the element
	// order, in which each event follows the one before it at its
	// element.
	reach, preds, err := order.Closure(n, func(v int, buf []int) []int {
		for _, w := range c.Enabled(EventID(v)) {
			buf = append(buf, int(w))
		}
		e := events[v]
		if next := at[e.elem] + e.seq + 1; int(next) < n && events[byElem[next]].elem == e.elem {
			buf = append(buf, int(byElem[next]))
		}
		return buf
	})
	if err != nil {
		return nil, fmt.Errorf("core: temporal order is not irreflexive: %w", err)
	}
	c.reach, c.preds = reach, preds
	for _, l := range b.threads {
		c.Label(l.id, l.tid)
	}
	return c, nil
}

func containsID(xs []EventID, x EventID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
