package explore_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
)

// refLog is what a log must build: a plain copy of every event and
// enable it emitted, copied whole by clone.
type refLog struct {
	log    explore.Log
	events []string // element of each event, in emission order
	edges  [][2]core.EventID
	last   []int
}

func newRefLog(procs int) *refLog {
	last := make([]int, procs)
	for i := range last {
		last[i] = -1
	}
	return &refLog{log: explore.NewLog(procs), last: last}
}

// emit emits an event at elem by proc, also enabled by extra, on both.
func (r *refLog) emit(proc int, elem string, extra ...int) int {
	idx := len(r.events)
	got := r.log.Emit(proc, elem, "E", core.NewParams(core.P("i", core.Int(int64(idx)))), extra...)
	if got != idx {
		panic(fmt.Sprintf("Emit returned index %d, want %d", got, idx))
	}
	r.events = append(r.events, elem)
	if proc >= 0 && r.last[proc] >= 0 {
		r.edges = append(r.edges, [2]core.EventID{core.EventID(r.last[proc]), core.EventID(idx)})
	}
	for _, e := range extra {
		if e >= 0 {
			r.edges = append(r.edges, [2]core.EventID{core.EventID(e), core.EventID(idx)})
		}
	}
	if proc >= 0 {
		r.last[proc] = idx
	}
	return idx
}

func (r *refLog) clone() *refLog {
	return &refLog{
		log:    r.log.Clone(),
		events: append([]string(nil), r.events...),
		edges:  append([][2]core.EventID(nil), r.edges...),
		last:   append([]int(nil), r.last...),
	}
}

// check fails t unless the log builds exactly r's events and enables,
// in emission order.
func (r *refLog) check(t *testing.T, name string) {
	t.Helper()
	got, err := r.log.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b := core.NewBuilder()
	for i, elem := range r.events {
		b.Event(elem, "E", core.NewParams(core.P("i", core.Int(int64(i)))))
	}
	for _, e := range r.edges {
		b.Enable(e[0], e[1])
	}
	want, err := b.Build()
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.String() != want.String() {
		t.Fatalf("%s built\n%swant\n%s", name, got, want)
	}
}

// TestLogClonesShareNothingTheyEmit: however clones and their parents
// interleave their emissions, each log builds exactly its own events and
// enables, in emission order.
func TestLogClonesShareNothingTheyEmit(t *testing.T) {
	t.Run("clone of a clone", func(t *testing.T) {
		a := newRefLog(2)
		a.emit(0, "x")
		a.emit(1, "y")
		b := a.clone()
		b.emit(0, "x", 1)
		c := b.clone()
		c.emit(1, "y", 2)
		b.emit(1, "z")
		a.emit(0, "z")
		c.emit(0, "x", 3)
		for name, r := range map[string]*refLog{"a": a, "b": b, "c": c} {
			r.check(t, name)
		}
	})
	t.Run("parent emits after two clones", func(t *testing.T) {
		a := newRefLog(2)
		for i := 0; i < 3; i++ {
			a.emit(i%2, "x")
		}
		b := a.clone()
		c := a.clone()
		a.emit(0, "y", 1)
		a.emit(1, "y")
		b.emit(1, "z", 0)
		c.emit(0, "x")
		for name, r := range map[string]*refLog{"a": a, "b": b, "c": c} {
			r.check(t, name)
		}
	})
	t.Run("clones emit interleaved", func(t *testing.T) {
		a := newRefLog(3)
		a.emit(2, "x")
		b, c := a.clone(), a.clone()
		for i := 0; i < 6; i++ {
			b.emit(i%3, "b", i)
			c.emit((i+1)%3, "c")
			if i == 2 {
				b = b.clone()
				c.check(t, "c mid-way")
			}
		}
		a.emit(-1, "a", 0)
		for name, r := range map[string]*refLog{"a": a, "b": b, "c": c} {
			r.check(t, name)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		logs := []*refLog{newRefLog(3)}
		for step := 0; step < 400; step++ {
			r := logs[rng.Intn(len(logs))]
			switch k := rng.Intn(10); {
			case k == 0 && len(logs) < 12:
				logs = append(logs, r.clone())
			case k == 1:
				r.check(t, fmt.Sprintf("step %d", step))
			default:
				extra := -1
				if n := len(r.events); n > 0 && rng.Intn(2) == 0 {
					extra = rng.Intn(n)
				}
				r.emit(rng.Intn(4)-1, fmt.Sprintf("e%d", rng.Intn(3)), extra)
			}
		}
		for i, r := range logs {
			r.check(t, fmt.Sprintf("log %d", i))
		}
	})
}
