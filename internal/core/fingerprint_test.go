package core

import (
	"fmt"
	"testing"
)

func fpComp(t *testing.T, label func(*Builder, EventID)) *Computation {
	t.Helper()
	b := NewBuilder()
	a := b.Event("e", "A", NewParams(P("n", Int(1)), P("s", Str("x"))))
	c := b.Event("f", "B", Params{})
	b.Enable(a, c)
	if label != nil {
		label(b, c)
	}
	comp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	c1 := fpComp(t, nil)
	c2 := fpComp(t, nil)
	if Fingerprint(c1) != Fingerprint(c2) {
		t.Error("identical computations fingerprint differently")
	}
	if Fingerprint(c1) != Fingerprint(c1) {
		t.Error("fingerprint not memoized-stable")
	}
	// Different parameter value.
	b := NewBuilder()
	a := b.Event("e", "A", NewParams(P("n", Int(2)), P("s", Str("x"))))
	c := b.Event("f", "B", Params{})
	b.Enable(a, c)
	c3, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(c1) == Fingerprint(c3) {
		t.Error("parameter edit kept the fingerprint")
	}
	// Different enable structure.
	b = NewBuilder()
	b.Event("e", "A", NewParams(P("n", Int(1)), P("s", Str("x"))))
	b.Event("f", "B", Params{})
	c4, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(c1) == Fingerprint(c4) {
		t.Error("dropped enable edge kept the fingerprint")
	}
	// Thread labels are part of the fingerprint, in any labelling order.
	l1 := fpComp(t, func(b *Builder, id EventID) { b.Thread(id, "t1"); b.Thread(id, "t2") })
	l2 := fpComp(t, func(b *Builder, id EventID) { b.Thread(id, "t2"); b.Thread(id, "t1") })
	if Fingerprint(l1) != Fingerprint(l2) {
		t.Error("thread labelling order changed the fingerprint")
	}
	if Fingerprint(l1) == Fingerprint(c1) {
		t.Error("thread labels not covered by the fingerprint")
	}
}

// TestFingerprintGolden pins the fingerprint's bytes. It keys every
// record of the persistent store, so a change to how events, parameters,
// thread labels or edges are hashed orphans every store on disk. The
// computation's events carry zero, one and three parameters of all three
// kinds, given out of name order, plus thread labels given out of order.
func TestFingerprintGolden(t *testing.T) {
	b := NewBuilder()
	init := b.Event("buf", "Init", Params{})
	put := b.Event("buf", "Put", NewParams(P("item", Int(-3))))
	note := b.Event("user", "Note", NewParams(P("s", Str("héllo")), P("n", Int(42)), P("b", Bool(true))))
	flag := b.Event("user", "Flag", NewParams(P("ok", Bool(false))))
	b.Enable(init, note)
	b.Enable(put, flag)
	b.Enable(init, flag)
	b.Thread(put, "t2")
	b.Thread(put, "t1")
	b.Thread(init, "t1")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const want = "698c70239fea45d43933833584d5c18290209d961c519f6ca2ec05d1927d863a"
	if got := Fingerprint(c); got != want {
		t.Errorf("Fingerprint = %s, want %s", got, want)
	}
}

// TestFingerprintAllocationCeiling bounds what fingerprinting a 40-event
// computation allocates: the rendering buffer, the scratch slice the
// thread labels are sorted in, the hex digest and the memo's boxed
// value. Hashing field by field through a hash.Hash, with a string
// conversion per write and a sorted copy of every event's labels, made
// 366 allocations here.
func TestFingerprintAllocationCeiling(t *testing.T) {
	b := NewBuilder()
	var prev EventID
	for i := 0; i < 40; i++ {
		id := b.Event(fmt.Sprintf("proc%d", i%4), "Step",
			NewParams(P("n", Int(int64(i))), P("s", Str("item")), P("ok", Bool(i%2 == 0))))
		b.Thread(id, fmt.Sprintf("t%d", i%3))
		b.Thread(id, "main")
		if i > 0 {
			b.Enable(prev, id)
		}
		prev = id
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(c)
	allocs := testing.AllocsPerRun(20, func() {
		c.derivedMu.Lock()
		delete(c.derived, fingerprintKey)
		c.derivedMu.Unlock()
		if Fingerprint(c) != want {
			t.Fatal("fingerprint changed between runs")
		}
	})
	t.Logf("%.0f allocations per fingerprint", allocs)
	if allocs > 5 {
		t.Errorf("%.0f allocations per fingerprint, ceiling 5", allocs)
	}
}
