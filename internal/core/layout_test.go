package core

import (
	"reflect"
	"testing"
)

// hasPointers reports whether a value of type t holds a pointer the
// collector would follow.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
		reflect.Slice, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestLayoutHoldsNoPointers walks Computation's fields, and the structs
// they hold or point to, and fails on any array whose elements hold a
// pointer: the per-event and per-row arrays must be arrays of integers
// and words, which the collector never scans, however many computations
// a checker keeps. Only a few fields may point: the table snapshot that
// every computation built on one NameTable shares, the thread
// identifiers (one per thread instance) and the derived-data cache.
func TestLayoutHoldsNoPointers(t *testing.T) {
	shared := map[string]bool{"names": true, "params": true, "tids": true, "derived": true}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + "." + f.Name
			switch {
			case shared[f.Name]:
			case f.Type.Kind() == reflect.Slice:
				if hasPointers(f.Type.Elem()) {
					t.Errorf("%s: elements of type %s hold pointers", name, f.Type.Elem())
				}
			case f.Type.Kind() == reflect.Struct:
				walk(name, f.Type)
			case f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct:
				walk(name, f.Type.Elem())
			case hasPointers(f.Type):
				t.Errorf("%s: type %s holds pointers", name, f.Type)
			}
		}
	}
	walk("Computation", reflect.TypeOf(Computation{}))
	if hasPointers(reflect.TypeOf(event{})) {
		t.Error("an event record holds pointers")
	}
}

// TestTableSharedAcrossBuilds checks that computations built on one
// table share its names rather than copying them, and that a
// computation keeps the table as it was at Build while the table grows.
func TestTableSharedAcrossBuilds(t *testing.T) {
	table := NewNameTable()
	build := func(elem string) *Computation {
		b := table.Builder()
		b.Event(elem, "E", NewParams(P("x", Int(1))))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := build("a")
	c2 := build("a")
	if &c1.names[0] != &c2.names[0] || &c1.params[0] != &c2.params[0] {
		t.Error("two computations of one table hold separate copies of its names")
	}
	c3 := build("b")
	if len(c1.names) != 2 || len(c3.names) != 3 {
		t.Errorf("snapshots hold %d and %d names, want 2 and 3", len(c1.names), len(c3.names))
	}
	if got := c3.Event(0).Element(); got != "b" {
		t.Errorf("element %q, want b", got)
	}
	if got := c1.Event(0).String(); got != "a.E^0(x=1)" {
		t.Errorf("event %q, want a.E^0(x=1)", got)
	}
	for i := 0; i < 2*scanLimit; i++ {
		table.Intern(string(rune('A' + i)))
		table.InternParams(NewParams(P("x", Int(int64(i)))))
	}
	if table.Intern("b") != 2 || table.InternParams(NewParams(P("x", Int(1)))) != 0 {
		t.Error("an indexed table interned a known name or list again")
	}
	if len(c1.names) != 2 || len(c1.params) != 1 {
		t.Error("a built computation saw the table grow")
	}
}

// TestParamsInternedByValue checks that a table gives equal lists one
// index and lists that differ in any field of any parameter their own,
// including lists whose fields would run together without lengths, both
// while the table scans its lists and once it indexes them.
func TestParamsInternedByValue(t *testing.T) {
	lists := []Params{
		{},
		NewParams(P("x", Int(1))),
		NewParams(P("x", Int(-1))),
		NewParams(P("x", Str("1"))),
		NewParams(P("x", Str("2"))),
		NewParams(P("x", Bool(true))),
		NewParams(P("x", Value{})),
		NewParams(P("y", Int(1))),
		NewParams(P("x", Int(1)), P("y", Int(1))),
		NewParams(P("ab", Str("c"))),
		NewParams(P("a", Str("bc"))),
		NewParams(P("a", Str("b")), P("c", Str(""))),
		NewParams(P("x", Value{Kind: KindString, I: 1, S: "1"})),
	}
	for _, before := range []int{0, 2 * scanLimit} {
		table := NewNameTable()
		for i := 0; i < before; i++ {
			table.InternParams(NewParams(P("filler", Int(int64(i)))))
		}
		for i, p := range lists {
			if got := table.InternParams(p); got != int32(before+i) {
				t.Errorf("after %d lists: list %d (%s) interned as %d, want %d", before, i, p, got, before+i)
			}
		}
		for i, p := range lists {
			again := NewParams(append([]Param(nil), p.list...)...)
			if got := table.InternParams(again); got != int32(before+i) {
				t.Errorf("after %d lists: a copy of list %d (%s) interned as %d", before, i, p, got)
			}
		}
	}
}

// TestUnlabelledStoresNoLabels checks that a computation nobody labels
// keeps no label storage, and that Label keeps each event's labels once,
// in labelling order, whatever order the events are labelled in.
func TestUnlabelledStoresNoLabels(t *testing.T) {
	b := NewBuilder()
	x := b.Event("X", "E", Params{})
	y := b.Event("Y", "E", Params{})
	b.Enable(x, y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.labels != nil {
		t.Fatal("an unlabelled computation holds label storage")
	}
	if c.Event(x).Threads().Len() != 0 || c.Event(x).HasThread("t#1") {
		t.Error("an unlabelled event reads a label")
	}
	c.Label(y, "t#2")
	c.Label(x, "t#1")
	c.Label(y, "t#1")
	c.Label(x, "t#1")
	c.Label(y, "t#2")
	want := map[EventID][]string{x: {"t#1"}, y: {"t#2", "t#1"}}
	for id, tids := range want {
		e := c.Event(id)
		labels := e.Threads()
		if labels.Len() != len(tids) {
			t.Fatalf("%s: %d labels, want %v", e.Name(), labels.Len(), tids)
		}
		for k, tid := range tids {
			if labels.At(k) != tid || !e.HasThread(tid) {
				t.Errorf("%s: label %d is %q, want %q", e.Name(), k, labels.At(k), tid)
			}
		}
	}
}
