package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Fingerprint returns a stable content hash of the computation: the
// SHA-256 of its events (element, class, occurrence index, parameters,
// thread labels) and direct enable edges. Two computations built from
// the same events and edges fingerprint identically across processes,
// which makes the fingerprint the computation half of every persistent
// store key; anything derivable from the computation (its temporal
// order, histories, lattice, verdicts) is covered by it.
//
// The fingerprint is memoized via Derived on first call, so callers must
// only request it after the computation has reached its final observable
// state — in particular after thread.Apply has labelled its events. All
// cache-consulting paths satisfy this: they run strictly after
// projection and thread labelling.
func Fingerprint(c *Computation) string {
	return c.Derived("core.fingerprint", func() any {
		h := sha256.New()
		var buf [binary.MaxVarintLen64]byte
		writeUint := func(v uint64) {
			n := binary.PutUvarint(buf[:], v)
			h.Write(buf[:n])
		}
		writeInt := func(v int64) {
			n := binary.PutVarint(buf[:], v)
			h.Write(buf[:n])
		}
		writeStr := func(s string) {
			writeUint(uint64(len(s)))
			h.Write([]byte(s))
		}
		writeUint(uint64(len(c.events)))
		for _, e := range c.events {
			writeStr(e.Element)
			writeStr(e.Class)
			writeUint(uint64(e.Seq))
			writeUint(uint64(e.Params.Len()))
			for i := 0; i < e.Params.Len(); i++ {
				p := e.Params.At(i)
				v := p.Value
				writeStr(p.Name)
				writeUint(uint64(v.Kind))
				switch v.Kind {
				case KindInt:
					writeInt(v.I)
				case KindString:
					writeStr(v.S)
				case KindBool:
					if v.B {
						writeUint(1)
					} else {
						writeUint(0)
					}
				}
			}
			// Thread labels are sorted so the fingerprint does not depend
			// on labelling order, only on the label set.
			tids := append([]string(nil), e.Threads...)
			sort.Strings(tids)
			writeUint(uint64(len(tids)))
			for _, tid := range tids {
				writeStr(tid)
			}
		}
		for _, targets := range c.enables {
			writeUint(uint64(len(targets)))
			for _, t := range targets {
				writeUint(uint64(t))
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}).(string)
}
