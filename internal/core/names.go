package core

import "slices"

// NameTable interns what events name: element and class names become
// indices into one array of strings, and parameter lists, compared by
// value, indices into one array of lists, each stored once. Every
// computation built on one table shares it, so a run's events hold only
// small integers and the collector has nothing in them to scan.
//
// A table only grows. A computation keeps the prefix of each array that
// existed when it was built, so a reader of a built computation never
// sees a later append, and one goroutine may go on interning (an
// exploration's walk) while others read what it built. A table itself is
// not safe for concurrent use.
type NameTable struct {
	names  []string
	params []Params
	// The indexes, nil while their array is short enough to scan.
	// paramsAt maps a list's hash to the last list with that hash, and
	// paramsPrev each list to the list before it with its hash, or -1.
	nameAt     map[string]int32
	paramsAt   map[uint64]int32
	paramsPrev []int32
}

// scanLimit is the number of entries an array holds before its table
// indexes it by a map. Most tables never reach it: one gemmut campaign
// of 2,000 mutants builds ~3,800 tables of at most 15 names and 6 lists,
// a gemverify matrix pass 160 of at most 25 names and 26 lists, and of
// the readers=3 exploration's table only the 36 lists pass it. Indexed
// from the first entry, tables cost such a campaign 3 MB (5 %) more
// allocation, and TestBuildAllocationCeiling 22 and 43 allocations
// instead of 17 and 31.
const scanLimit = 32

// NewNameTable returns an empty table.
func NewNameTable() *NameTable { return new(NameTable) }

// Intern returns s's index in the table, adding it if it is new.
func (t *NameTable) Intern(s string) int32 {
	if t.nameAt != nil {
		if i, ok := t.nameAt[s]; ok {
			return i
		}
	} else {
		for i, n := range t.names {
			if n == s {
				return int32(i)
			}
		}
		if len(t.names) == scanLimit {
			t.nameAt = make(map[string]int32, 2*scanLimit)
			for i, n := range t.names {
				t.nameAt[n] = int32(i)
			}
		}
	}
	i := int32(len(t.names))
	if t.names == nil {
		t.names = make([]string, 0, 8)
	}
	t.names = append(t.names, s)
	if t.nameAt != nil {
		t.nameAt[s] = i
	}
	return i
}

// InternParams returns the index of the list equal to p, adding p if no
// list in the table equals it.
func (t *NameTable) InternParams(p Params) int32 {
	var h uint64
	if t.paramsAt != nil {
		h = p.hash()
		i, ok := t.paramsAt[h]
		for ; ok && i >= 0; i = t.paramsPrev[i] {
			if slices.Equal(t.params[i].list, p.list) {
				return i
			}
		}
	} else {
		for i, q := range t.params {
			if slices.Equal(q.list, p.list) {
				return int32(i)
			}
		}
		if len(t.params) == scanLimit {
			t.paramsAt = make(map[uint64]int32, 2*scanLimit)
			t.paramsPrev = make([]int32, 0, 2*scanLimit)
			for _, q := range t.params {
				t.index(q.hash())
			}
			h = p.hash()
		}
	}
	if t.params == nil {
		t.params = make([]Params, 0, 8)
	}
	t.params = append(t.params, p)
	if t.paramsAt != nil {
		t.index(h)
	}
	return int32(len(t.params) - 1)
}

// index enters the table's latest list, whose hash is h, in paramsAt.
func (t *NameTable) index(h uint64) {
	i := int32(len(t.paramsPrev))
	prev, ok := t.paramsAt[h]
	if !ok {
		prev = -1
	}
	t.paramsPrev = append(t.paramsPrev, prev)
	t.paramsAt[h] = i
}

// hash hashes every field of every parameter (FNV-1a), strings with
// their lengths, so that lists that differ usually hash apart.
func (p Params) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(x uint64) {
		for k := 0; k < 8; k++ {
			h = (h ^ (x & 0xff)) * prime
			x >>= 8
		}
	}
	str := func(s string) {
		word(uint64(len(s)))
		for k := 0; k < len(s); k++ {
			h = (h ^ uint64(s[k])) * prime
		}
	}
	for _, q := range p.list {
		str(q.Name)
		v := q.Value
		word(uint64(v.Kind))
		word(uint64(v.I))
		str(v.S)
		if v.B {
			word(1)
		} else {
			word(0)
		}
	}
	return h
}
