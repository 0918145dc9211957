package order

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatal("new bitset should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("Has(%d) = false after Set", i)
		}
	}
	if got := b.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Has(64) = true after Clear")
	}
	if got := b.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	want := []int{0, 1, 63, 65, 128, 129}
	if got := b.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
}

func TestBitsetOutOfRange(t *testing.T) {
	b := NewBitset(10)
	if b.Has(-1) || b.Has(10) || b.Has(100) {
		t.Error("out-of-range Has should be false")
	}
	assertPanics(t, func() { b.Set(10) })
	assertPanics(t, func() { b.Set(-1) })
	assertPanics(t, func() { b.Clear(10) })
}

func TestBitsetZeroCapacity(t *testing.T) {
	b := NewBitset(0)
	if b.Count() != 0 || len(b.Members()) != 0 {
		t.Error("zero-capacity bitset should be empty")
	}
	neg := NewBitset(-5)
	if neg.n != 0 {
		t.Errorf("negative capacity clamped: n = %d, want 0", neg.n)
	}
}

func TestBitsetSetOps(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	for _, i := range []int{1, 5, 70} {
		a.Set(i)
	}
	for _, i := range []int{5, 70, 99} {
		b.Set(i)
	}

	or := a.Clone()
	or.OrWith(b)
	if got, want := or.Members(), []int{1, 5, 70, 99}; !reflect.DeepEqual(got, want) {
		t.Errorf("Or = %v, want %v", got, want)
	}

	and := a.Clone()
	and.AndWith(b)
	if got, want := and.Members(), []int{5, 70}; !reflect.DeepEqual(got, want) {
		t.Errorf("And = %v, want %v", got, want)
	}

	diff := a.Clone()
	diff.AndNotWith(b)
	if got, want := diff.Members(), []int{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("AndNot = %v, want %v", got, want)
	}

	if !and.SubsetOf(a) || !and.SubsetOf(b) {
		t.Error("intersection should be subset of both operands")
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	empty := NewBitset(100)
	if empty.Intersects(a) {
		t.Error("empty set intersects nothing")
	}
}

func TestBitsetEqualAndKey(t *testing.T) {
	a := NewBitset(70)
	b := NewBitset(70)
	a.Set(3)
	b.Set(3)
	if a.Key() != b.Key() {
		t.Error("equal sets must have equal keys")
	}
	b.Set(69)
	if a.Key() == b.Key() {
		t.Error("unequal sets must differ")
	}
}

func TestBitsetCloneIndependence(t *testing.T) {
	a := NewBitset(10)
	a.Set(2)
	b := a.Clone()
	b.Set(3)
	if a.Has(3) {
		t.Error("Clone must be independent")
	}
}

func TestBitsetForEachEarlyStop(t *testing.T) {
	b := NewBitset(100)
	for i := 0; i < 100; i += 2 {
		b.Set(i)
	}
	var seen []int
	b.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if got, want := seen, []int{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("early stop saw %v, want %v", got, want)
	}
}

func TestBitsetString(t *testing.T) {
	b := NewBitset(10)
	if got := b.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	b.Set(1)
	b.Set(7)
	if got := b.String(); got != "{1, 7}" {
		t.Errorf("String = %q, want {1, 7}", got)
	}
}

func TestBitsetCapacityMismatchPanics(t *testing.T) {
	a := NewBitset(10)
	b := NewBitset(11)
	assertPanics(t, func() { a.OrWith(b) })
	assertPanics(t, func() { a.AndWith(b) })
	assertPanics(t, func() { a.AndNotWith(b) })
	assertPanics(t, func() { a.SubsetOf(b) })
	assertPanics(t, func() { a.Intersects(b) })
}

// Property: membership after a random sequence of Set/Clear matches a
// reference map implementation.
func TestBitsetQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 200
		rng := rand.New(rand.NewSource(seed))
		b := NewBitset(n)
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % n
			if rng.Intn(2) == 0 {
				b.Set(i)
				ref[i] = true
			} else {
				b.Clear(i)
				delete(ref, i)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Has(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish identity |A∪B| = |A| + |B| - |A∩B|.
func TestBitsetQuickInclusionExclusion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 300
		a := NewBitset(n)
		b := NewBitset(n)
		for _, x := range xs {
			a.Set(int(x) % n)
		}
		for _, y := range ys {
			b.Set(int(y) % n)
		}
		union := a.Clone()
		union.OrWith(b)
		inter := a.Clone()
		inter.AndWith(b)
		return union.Count() == a.Count()+b.Count()-inter.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsetCopyFromResetFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		a := NewBitset(n)
		a.Fill()
		if a.Count() != n {
			t.Fatalf("Fill: Count = %d, want %d (n=%d)", a.Count(), n, n)
		}
		a.ForEach(func(i int) bool {
			if i < 0 || i >= n {
				t.Fatalf("Fill set out-of-range bit %d (n=%d)", i, n)
			}
			return true
		})
		b := NewBitset(n)
		if n > 0 {
			b.Set(n / 2)
		}
		a.CopyFrom(b)
		if a.Key() != b.Key() {
			t.Fatalf("CopyFrom: %s != %s", a, b)
		}
		a.Reset()
		if a.Count() != 0 {
			t.Fatalf("Reset left members: %s", a)
		}
		// CopyFrom reuses storage: mutating the copy must not touch the
		// source.
		if n > 0 {
			a.CopyFrom(b)
			a.Clear(n / 2)
			if !b.Has(n / 2) {
				t.Fatal("CopyFrom aliased the source set")
			}
		}
	}
	assertPanics(t, func() { NewBitset(5).CopyFrom(NewBitset(6)) })
}

// TestIsCliqueBruteForce cross-checks IsClique against the pairwise
// member loop it replaces, over random symmetric relations.
func TestIsCliqueBruteForce(t *testing.T) {
	f := func(edges []uint16, members []uint8) bool {
		const n = 70
		rows := NewRows(n)
		for _, e := range edges {
			u, v := int(e)%n, int(e/uint16(n))%n
			if u != v {
				rows.Row(u).Set(v)
				rows.Row(v).Set(u)
			}
		}
		set := NewBitset(n)
		for _, m := range members {
			set.Set(int(m) % n)
		}
		ms := set.Members()
		want := true
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				if !rows.Row(ms[i]).Has(ms[j]) {
					want = false
				}
			}
		}
		return IsClique(rows, set) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// TestRowsShareOneArray checks that a relation's rows are views of one
// array: Row allocates nothing, a write through one view shows through
// another and through Has, and rows do not overlap.
func TestRowsShareOneArray(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		r := NewRows(n)
		for i := 0; i < n; i++ {
			r.Row(i).Set((i * 7) % n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := j == (i*7)%n
				if r.Has(i, j) != want || r.Row(i).Has(j) != want {
					t.Fatalf("n=%d: row %d has %d = %v, want %v", n, i, j, r.Has(i, j), want)
				}
			}
			if r.Has(i, n) || r.Has(i, -1) {
				t.Fatalf("n=%d: row %d holds an out-of-range value", n, i)
			}
		}
		if n > 0 {
			if allocs := testing.AllocsPerRun(10, func() { r.Row(n - 1).Set(0) }); allocs != 0 {
				t.Errorf("n=%d: Row allocates %.0f times", n, allocs)
			}
		}
	}
}
