package core

import "testing"

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
