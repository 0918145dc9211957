package lint

import (
	"reflect"
	"sort"
	"strings"
)

// The redundancy analysis (GEM012) flags restrictions another restriction
// already implies:
//
//  1. a formula structurally identical to an earlier restriction's
//     (reflect.DeepEqual over the IR — quantifier variable names included,
//     so only true duplicates match);
//  2. a prerequisite constraint whose (source set, target) duplicates one
//     an earlier restriction imposes.
//
// Duplicates are warnings: the spec's meaning is unchanged, but every
// copy costs a full enumeration pass per computation checked.
func (a *analysis) checkRedundant() {
	rs := a.s.Restrictions()
	key := func(i int) string { return rs[i].Owner + "\x00" + rs[i].Name }
	// reportedPair dedupes (1) against (2): an identical formula already
	// explains why the extracted constraints coincide.
	reportedPair := make(map[string]bool)

	for j := range rs {
		for i := 0; i < j; i++ {
			if key(i) == key(j) {
				continue
			}
			if reflect.DeepEqual(rs[i].F, rs[j].F) {
				reportedPair[key(i)+"\x01"+key(j)] = true
				a.warnAt(a.posOf(inRestriction, rs[j].Name), CodeRedundant,
					restrictionSubject(rs[j].Owner, rs[j].Name),
					"redundant: identical to %s", restrictionSubject(rs[i].Owner, rs[i].Name))
				break
			}
		}
	}

	// Constraint-level subsumption. Constraints are grouped by their
	// canonical (sorted sources, target) shape; within a group the first
	// declaring restriction wins and later distinct ones are flagged once.
	type conOwner struct{ owner, name string }
	index := make(map[string]int) // restriction key -> index in rs
	for i := range rs {
		index[key(i)] = i
	}
	byShape := make(map[string][]conOwner)
	var shapes []string
	for _, c := range a.cons {
		srcs := make([]string, len(c.Sources))
		for k, s := range c.Sources {
			srcs[k] = s.String()
		}
		sort.Strings(srcs)
		shape := strings.Join(srcs, ",") + ">" + c.Target.String()
		if _, ok := byShape[shape]; !ok {
			shapes = append(shapes, shape)
		}
		byShape[shape] = append(byShape[shape], conOwner{c.Owner, c.Restriction})
	}
	flagged := make(map[string]bool)
	for _, shape := range shapes {
		owners := byShape[shape]
		first := owners[0]
		for _, o := range owners[1:] {
			if o == first {
				continue // the same restriction repeating its own conjunct
			}
			ki := first.owner + "\x00" + first.name
			kj := o.owner + "\x00" + o.name
			if reportedPair[ki+"\x01"+kj] || reportedPair[kj+"\x01"+ki] || flagged[kj+shape] {
				continue
			}
			flagged[kj+shape] = true
			a.warnAt(a.posOf(inRestriction, o.name), CodeRedundant,
				restrictionSubject(o.owner, o.name),
				"redundant: prerequisite %s is already imposed by %s",
				shapeString(shape), restrictionSubject(first.owner, first.name))
		}
	}
}

// shapeString renders the canonical shape back in the arrow form users
// see elsewhere ("src -> target", "{s1, s2} -> target").
func shapeString(shape string) string {
	i := strings.LastIndex(shape, ">")
	srcs, target := shape[:i], shape[i+1:]
	if strings.Contains(srcs, ",") {
		srcs = "{" + strings.ReplaceAll(srcs, ",", ", ") + "}"
	}
	return srcs + " -> " + target
}
