package store

import (
	"bytes"
	"math/rand"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
)

// FuzzDecodeRecord pins the store's robustness contract: arbitrary bytes
// fed to the segment scanner never panic, every frame it indexes
// re-encodes to exactly the bytes it was read from, and every payload
// decoder either rejects an indexed payload or returns something bound
// to the live computation. Sat, corpus and manifest payloads have no
// decoder of their own: a sat record is the one byte LookupSat
// compares, and corpus and manifest payloads are opaque to the store
// (internal/mutate owns their codec).
func FuzzDecodeRecord(f *testing.F) {
	comp := randComp(rand.New(rand.NewSource(42)), 5)
	formula := logic.And{
		logic.Box{F: logic.ForAll{Var: "e", Ref: core.Ref("", "X"), Body: logic.Occurred{Var: "e"}}},
		logic.FalseF{},
	}
	frame := func(kind byte, part string, payload []byte) []byte {
		return appendRecord(nil, recordID{key(part), kind}, payload)
	}
	// Seeds: valid records of every kind, a segment of several, plus
	// classic mutations.
	cx := logic.Holds(formula, comp, logic.CheckOptions{})
	verdict := frame(kindVerdict, "fail", encodeVerdict(cx))
	f.Add(verdict)
	f.Add(verdict[:len(verdict)/2])
	f.Add(frame(kindVerdict, "pass", encodeVerdict(nil)))
	f.Add(frame(kindSat, "sat", []byte{1}))
	f.Add(frame(kindCorpus, "corpus", []byte("corpus entry")))
	f.Add(frame(kindManifest, "manifest", []byte("manifest")))
	f.Add([]byte{})
	f.Add([]byte("GEMS"))
	segment := append(frame(kindSat, "sat", []byte{1}), verdict...)
	f.Add(append(segment, frame(kindManifest, "manifest", []byte("head"))[:20]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		scanSegment(data, func(id recordID, off, n int) {
			got, payload, m, err := decodeRecord(data[off : off+n])
			if err != nil || m != n || got != id {
				t.Fatalf("frame at %d does not decode alone: %v", off, err)
			}
			if re := appendRecord(nil, id, payload); !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("frame at %d re-encodes differently:\n  read %x\n  made %x", off, data[off:off+n], re)
			}
			// Every payload decoder must still either reject an indexed
			// payload or return something internally consistent — and
			// must never panic.
			if id.kind == kindVerdict {
				cx, err := decodeVerdict(payload, formula, comp)
				if err == nil && cx != nil && (cx.Comp != comp || cx.History.Computation() != comp) {
					t.Fatal("decoded verdict not bound to the live computation")
				}
			}
		})
	})
}
