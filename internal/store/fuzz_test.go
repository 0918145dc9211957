package store

import (
	"math/rand"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
)

// FuzzDecodeRecord pins the store's robustness contract: arbitrary bytes
// fed to the record decoders never panic and always degrade to a miss
// (an error or a rejected payload), across both decoding layers — the
// record framing and the verdict payload. Sat, corpus and manifest
// payloads have no decoder of their own: a sat record is the one byte
// LookupSat compares, and corpus and manifest payloads are opaque to the
// store (internal/mutate owns their codec).
func FuzzDecodeRecord(f *testing.F) {
	comp := randComp(rand.New(rand.NewSource(42)), 5)
	formula := logic.And{
		logic.Box{F: logic.ForAll{Var: "e", Ref: core.Ref("", "X"), Body: logic.Occurred{Var: "e"}}},
		logic.FalseF{},
	}
	// Seeds: valid records of every kind, plus classic mutations.
	cx := logic.Holds(formula, comp, logic.CheckOptions{})
	verdict := encodeRecord(kindVerdict, encodeVerdict(cx))
	f.Add(verdict)
	f.Add(verdict[:len(verdict)/2])
	f.Add(encodeRecord(kindVerdict, encodeVerdict(nil)))
	f.Add(encodeRecord(kindSat, []byte{1}))
	f.Add(encodeRecord(kindCorpus, []byte("corpus entry")))
	f.Add(encodeRecord(kindManifest, []byte("manifest")))
	f.Add([]byte{})
	f.Add([]byte("GEMS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := decodeRecord(data)
		if err != nil {
			return // a miss, exactly as required
		}
		// A structurally valid frame: every payload decoder must still
		// either reject it or return something internally consistent —
		// and must never panic.
		switch kind {
		case kindVerdict:
			cx, err := decodeVerdict(payload, formula, comp)
			if err == nil && cx != nil {
				// Whatever decoded must be a well-formed witness shape.
				if cx.Comp != comp || cx.History.Computation() != comp {
					t.Fatal("decoded verdict not bound to the live computation")
				}
			}
		case kindSat, kindCorpus, kindManifest:
			// No payload decoder: reaching here without a panic is the
			// whole contract.
		default:
			// Unknown kinds, the two retired ones included, are fine at
			// the framing layer; the store's read() rejects them by kind
			// mismatch.
		}
	})
}
