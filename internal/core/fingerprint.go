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
	return c.Derived(fingerprintKey, func() any { return fingerprint(c) }).(string)
}

// fingerprintKey is the Derived key of the memoized fingerprint.
const fingerprintKey = "core.fingerprint"

// fingerprint renders the computation into one buffer — every integer
// as a varint, every string as its uvarint length and bytes — and
// hashes it once.
func fingerprint(c *Computation) string {
	buf := make([]byte, 0, 64*len(c.events)) // room for most events' fields and edges
	appendStr := func(buf []byte, s string) []byte {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	}
	var tids []string
	buf = binary.AppendUvarint(buf, uint64(len(c.events)))
	for i, e := range c.events {
		buf = appendStr(buf, c.names[e.elem])
		buf = appendStr(buf, c.names[e.class])
		buf = binary.AppendUvarint(buf, uint64(e.seq))
		params := c.params[e.params]
		buf = binary.AppendUvarint(buf, uint64(params.Len()))
		for _, p := range params.list {
			v := p.Value
			buf = appendStr(buf, p.Name)
			buf = binary.AppendUvarint(buf, uint64(v.Kind))
			switch v.Kind {
			case KindInt:
				buf = binary.AppendVarint(buf, v.I)
			case KindString:
				buf = appendStr(buf, v.S)
			case KindBool:
				b := uint64(0)
				if v.B {
					b = 1
				}
				buf = binary.AppendUvarint(buf, b)
			}
		}
		// Thread labels are sorted so the fingerprint does not depend
		// on labelling order, only on the label set.
		tids = tids[:0]
		labels := c.Event(EventID(i)).Threads()
		for k := 0; k < labels.Len(); k++ {
			tids = append(tids, labels.At(k))
		}
		sort.Strings(tids)
		buf = binary.AppendUvarint(buf, uint64(len(tids)))
		for _, tid := range tids {
			buf = appendStr(buf, tid)
		}
	}
	for i := range c.events {
		targets := c.Enabled(EventID(i))
		buf = binary.AppendUvarint(buf, uint64(len(targets)))
		for _, t := range targets {
			buf = binary.AppendUvarint(buf, uint64(t))
		}
	}
	sum := sha256.Sum256(buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}
