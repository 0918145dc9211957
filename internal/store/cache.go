package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/history"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/order"
	"gem/internal/spec"
)

// specHashes memoizes gemlang.HashSpec per live spec pointer: whole-spec
// hashes key sat records and are requested once per checked computation,
// but a spec's canonical rendering never changes.
var specHashes sync.Map // *spec.Spec → string

func hashSpec(sp *spec.Spec) string {
	if h, ok := specHashes.Load(sp); ok {
		return h.(string)
	}
	h := gemlang.HashSpec(sp)
	specHashes.Store(sp, h)
	return h
}

// key derives a record key: the hex SHA-256 of the NUL-joined parts.
// Every key embeds a record-type tag and the engine version, so a
// version bump makes old records unreachable rather than mis-read.
func key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

var engineVersionStr = strconv.Itoa(EngineVersion)

func verdictKey(f logic.Formula, c *core.Computation) string {
	return key("verdict", engineVersionStr, gemlang.HashFormula(f), core.Fingerprint(c))
}

func satKey(problem *spec.Spec, c *core.Computation, corrKey string) string {
	return key("sat", engineVersionStr, hashSpec(problem), corrKey, core.Fingerprint(c))
}

// Lookup implements logic.VerdictCache: it serves a previously persisted
// restriction verdict for (f, c), rehydrating the failing
// witness against the live computation. Any decode or validation failure
// is a miss.
func (s *Store) Lookup(ctx context.Context, f logic.Formula, c *core.Computation) (*logic.Counterexample, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	_, sp := obs.StartSpan(ctx, "store.lookup")
	defer sp.End()
	if payload, ok := s.read(verdictKey(f, c), kindVerdict); ok {
		if cx, err := decodeVerdict(payload, f, c); err == nil {
			s.hit()
			return cx, true
		}
	}
	s.miss()
	return nil, false
}

// Store implements logic.VerdictCache's write-behind: it persists the
// verdict just computed for (f, c).
func (s *Store) Store(f logic.Formula, c *core.Computation, cx *logic.Counterexample) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	s.write(verdictKey(f, c), kindVerdict, encodeVerdict(cx))
}

// LookupSat implements verify.SatCache: a hit means a prior complete,
// uncancelled run proved this exact (problem, correspondence, program
// computation) combination sat. This is the warm fast path — it
// skips projection, thread labelling, and the whole legality check.
func (s *Store) LookupSat(ctx context.Context, problem *spec.Spec, c *core.Computation, corrKey string) bool {
	if s == nil || s.mode == Off {
		return false
	}
	_, sp := obs.StartSpan(ctx, "store.sat")
	defer sp.End()
	payload, ok := s.read(satKey(problem, c, corrKey), kindSat)
	if !ok || len(payload) != 1 || payload[0] != 1 {
		s.miss()
		return false
	}
	s.hit()
	return true
}

// StoreSat implements verify.SatCache. Only sat — failures are never
// recorded, so refutations recompute and keep their counterexamples.
func (s *Store) StoreSat(problem *spec.Spec, c *core.Computation, corrKey string) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	s.write(satKey(problem, c, corrKey), kindSat, []byte{1})
}

// ---- verdict payload codec ----

// Verdict payload layout:
//
//	flag byte (0 pass, 1 fail) — pass records end here.
//	formula hash (hex, length-prefixed): the canonical hash of the
//	  failing (sub)formula, matched against the live formula's
//	  decomposition on decode so the rehydrated counterexample renders
//	  byte-identically to the computed one.
//	uvarint numEvents (validated against the live computation)
//	history set | uvarint seqLen | seq sets — each set as uvarint size
//	  plus delta-encoded members.
func encodeVerdict(cx *logic.Counterexample) []byte {
	if cx == nil {
		return []byte{0}
	}
	out := []byte{1}
	fh := gemlang.HashFormula(cx.Formula)
	out = binary.AppendUvarint(out, uint64(len(fh)))
	out = append(out, fh...)
	out = binary.AppendUvarint(out, uint64(cx.Comp.NumEvents()))
	out = appendSet(out, cx.History.Set())
	out = binary.AppendUvarint(out, uint64(len(cx.Seq)))
	for _, h := range cx.Seq {
		out = appendSet(out, h.Set())
	}
	return out
}

func appendSet(out []byte, set order.Bitset) []byte {
	members := set.Members()
	out = binary.AppendUvarint(out, uint64(len(members)))
	prev := -1
	for _, m := range members {
		out = binary.AppendUvarint(out, uint64(m-prev))
		prev = m
	}
	return out
}

// decodeVerdict rehydrates a verdict payload against the live formula
// and computation. It validates everything: sets must be in-range,
// strictly increasing, and prefix-closed (history.FromSet), and the
// recorded failing formula must match the live formula or one of the
// subformulas logic.Holds can attribute a failure to (And conjuncts,
// recursively, and □ bodies — mirroring its dispatch).
// Any mismatch is an error, which the caller treats as a miss.
func decodeVerdict(payload []byte, f logic.Formula, c *core.Computation) (*logic.Counterexample, error) {
	if len(payload) == 0 {
		return nil, errCorrupt
	}
	flag, rest := payload[0], payload[1:]
	switch flag {
	case 0:
		if len(rest) != 0 {
			return nil, errCorrupt
		}
		return nil, nil
	case 1:
	default:
		return nil, errCorrupt
	}
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	fhLen, ok := next()
	if !ok || fhLen > uint64(len(rest)) {
		return nil, errCorrupt
	}
	fh := string(rest[:fhLen])
	rest = rest[fhLen:]
	failing := matchFormula(f, fh)
	if failing == nil {
		return nil, errCorrupt
	}
	n, ok := next()
	if !ok || int(n) != c.NumEvents() {
		return nil, errCorrupt
	}
	readSet := func() (order.Bitset, bool) {
		size, ok := next()
		if !ok || size > uint64(c.NumEvents()) {
			return order.Bitset{}, false
		}
		set := order.NewBitset(c.NumEvents())
		prev := -1
		for i := uint64(0); i < size; i++ {
			gap, ok := next()
			if !ok || gap == 0 || gap > uint64(c.NumEvents()) {
				return order.Bitset{}, false
			}
			m := prev + int(gap)
			if m >= c.NumEvents() {
				return order.Bitset{}, false
			}
			set.Set(m)
			prev = m
		}
		return set, true
	}
	hset, ok := readSet()
	if !ok {
		return nil, errCorrupt
	}
	h, err := history.FromSet(c, hset)
	if err != nil {
		return nil, errCorrupt
	}
	seqLen, ok := next()
	if !ok || seqLen > uint64(len(rest))+1 {
		return nil, errCorrupt
	}
	var seq history.Sequence
	for i := uint64(0); i < seqLen; i++ {
		set, ok := readSet()
		if !ok {
			return nil, errCorrupt
		}
		sh, err := history.FromSet(c, set)
		if err != nil {
			return nil, errCorrupt
		}
		seq = append(seq, sh)
	}
	if len(rest) != 0 {
		return nil, errCorrupt
	}
	return &logic.Counterexample{Formula: failing, History: h, Seq: seq, Comp: c}, nil
}

// matchFormula finds the (sub)formula of f whose canonical hash is
// wantHash, searching the shapes logic.Holds can attribute a failure to:
// the formula itself, And conjuncts (the top-level split), and □ bodies
// (the invariant reduction reports the body). Returns nil if nothing
// matches — the record then belongs to a different formula and must be
// treated as corrupt.
func matchFormula(f logic.Formula, wantHash string) logic.Formula {
	if gemlang.HashFormula(f) == wantHash {
		return f
	}
	switch g := f.(type) {
	case logic.And:
		for _, sub := range g {
			if m := matchFormula(sub, wantHash); m != nil {
				return m
			}
		}
	case logic.Box:
		return matchFormula(g.F, wantHash)
	}
	return nil
}
