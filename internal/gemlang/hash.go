package gemlang

import (
	"crypto/sha256"
	"encoding/hex"

	"gem/internal/logic"
	"gem/internal/spec"
)

// HashFormula returns a stable content hash of the formula: the SHA-256
// of its canonical concrete-syntax rendering (Source). Because the
// rendering carries no source positions, two formulas that differ only
// in where they were written in a spec file — or in which spec file —
// hash identically, and any semantic edit changes the hash. This is the
// restriction-level cache key of the persistent store: an edited spec
// re-derives per-restriction hashes, and only the restrictions whose
// canonical form changed miss the cache.
//
// Formula shapes with no surface syntax (none exist among the exported
// constructors, but external Formula implementations are possible) fall
// back to hashing the formula's String rendering.
func HashFormula(f logic.Formula) string {
	return hashString("gem.formula\x00" + formulaKey(f))
}

// HashSpec returns a stable content hash of a whole compiled
// specification: the SHA-256 of its canonical rendering (Format), which
// Parse round-trips to an equivalent spec. Like HashFormula it is
// position-independent; it keys the persistent store's whole-check sat
// records and gemmut's mutant dedup.
func HashSpec(s *spec.Spec) string {
	return hashString("gem.spec\x00" + specKey(s))
}

// formulaKey renders the canonical source, falling back to the String
// form for shapes Source cannot express.
func formulaKey(f logic.Formula) (key string) {
	defer func() {
		if recover() != nil {
			key = "opaque\x00" + f.String()
		}
	}()
	return Source(f)
}

// specKey renders the canonical spec source, with the same fallback as
// formulaKey should any embedded formula lack surface syntax.
func specKey(s *spec.Spec) (key string) {
	defer func() {
		if recover() != nil {
			// Degrade to the String renderings restriction by restriction;
			// still deterministic and position-independent, just not
			// parseable.
			k := "opaque\x00" + s.Name
			for _, r := range s.Restrictions() {
				k += "\x00" + r.Owner + "\x00" + r.Name + "\x00" + formulaKey(r.F)
			}
			key = k
		}
	}()
	return Format(s)
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
