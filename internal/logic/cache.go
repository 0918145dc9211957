package logic

import (
	"context"

	"gem/internal/core"
)

// VerdictCache is a persistent restriction-verdict store consulted by
// Holds before evaluating and written behind on a miss. Implementations
// (internal/store) key entries by the formula's canonical content hash
// and the computation fingerprint — restriction-granular, so
// editing one restriction of a spec invalidates only that restriction's
// entries. The interface lives here (and is satisfied structurally) so
// logic does not import the store.
//
// Lookup's ctx is the caller's (CheckOptions.Ctx), so a lookup's span
// nests under the evaluation that made it. Lookup returns the key it
// derived, and Holds hands it to Store after a miss, so a verdict's key
// is derived once.
//
// Contract: Lookup must return (verdict, true) only for an entry written
// by Store with the same key on a semantically identical evaluation —
// the returned counterexample must be either nil (the formula held) or a
// genuine falsifying witness for f on c (Counterexample.Verify).
// Implementations must be safe for concurrent use and must degrade any
// internal failure (missing, corrupt, truncated, version-skewed entry)
// to a miss, never a wrong verdict.
type VerdictCache interface {
	Lookup(ctx context.Context, f Formula, c *core.Computation) (cx *Counterexample, key VerdictKey, ok bool)
	Store(key VerdictKey, cx *Counterexample)
}

// VerdictKey is the key a VerdictCache stores one verdict under.
type VerdictKey [32]byte
