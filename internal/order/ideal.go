package order

// IdealsPre enumerates every order ideal (downward-closed subset,
// including the empty set) of the strict partial order whose
// reachability and predecessor sets are reach and preds
// (core.Computation keeps both directions). In GEM terms these are
// exactly the histories of a computation. fn receives each ideal as a
// Bitset that is reused between calls; clone it if retained. Enumeration
// stops early if fn returns false. Returns the number of ideals produced.
//
// The enumeration walks the lattice of ideals by repeatedly adding
// minimal elements of the complement, deduplicating via a visited set,
// so each ideal is produced exactly once.
func IdealsPre(reach, preds Rows, fn func(ideal Bitset) bool) int {
	n := reach.n
	seen := make(map[string]bool)
	count := 0
	stop := false

	var rec func(cur Bitset)
	rec = func(cur Bitset) {
		if stop {
			return
		}
		key := cur.Key()
		if seen[key] {
			return
		}
		seen[key] = true
		count++
		if !fn(cur) {
			stop = true
			return
		}
		for v := 0; v < n; v++ {
			if cur.Has(v) || !preds.Row(v).SubsetOf(cur) {
				continue
			}
			next := cur.Clone()
			next.Set(v)
			rec(next)
			if stop {
				return
			}
		}
	}
	rec(NewBitset(n))
	return count
}

// MinimalOutsideAppend appends to buf the elements not in cur all of
// whose predecessors are in cur — i.e. the events that could
// individually extend the ideal. Hot enumeration loops reuse one buffer
// per recursion depth instead of allocating a fresh slice per visited
// ideal.
func MinimalOutsideAppend(reach, preds Rows, cur Bitset, buf []int) []int {
	for v := 0; v < reach.n; v++ {
		if !cur.Has(v) && preds.Row(v).SubsetOf(cur) {
			buf = append(buf, v)
		}
	}
	return buf
}

// IsIdeal reports whether the set is downward closed under the partial
// order described by preds.
func IsIdeal(preds Rows, set Bitset) bool {
	ok := true
	set.ForEach(func(v int) bool {
		if !preds.Row(v).SubsetOf(set) {
			ok = false
			return false
		}
		return true
	})
	return ok
}
