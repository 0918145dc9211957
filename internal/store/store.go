// Package store implements the persistent, content-addressed result
// cache behind incremental checking: an on-disk map from (canonical spec
// hash × computation fingerprint × engine × versions) to two layers of
// check results, whole-check sat records and per-restriction verdict
// records, plus gemmut's corpus and manifest records (corpus.go). Keys
// are content hashes of canonical forms (gemlang.HashFormula/HashSpec,
// core.Fingerprint), so invalidation is automatic and
// restriction-granular: editing one restriction of a spec changes only
// that restriction's formula hash, and every other restriction keeps
// hitting. Results that cost less to recompute than to read, such as
// history lattices, are not persisted.
//
// The Store satisfies logic.VerdictCache and verify.SatCache
// structurally — those packages define the interfaces, this package
// implements them without importing them, so the engine layers stay
// store-free.
//
// Layout: each handle appends the records it writes to a segment file
// of its own under <dir>/v2, created on its first write, and Open reads
// every segment once into an in-memory index; Trim deletes whole
// segments, oldest first (see Store).
//
// Robustness rules: corrupt, truncated, or version-skewed records decode
// to a miss, never a wrong verdict (every frame carries a magic,
// version, key, length, and checksum; a frame that fails them ends its
// segment's index; every payload is validated against the live
// computation before use); concurrent writers never share a segment;
// all methods are nil-receiver-safe so a disabled cache can flow through
// call chains as a typed nil.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gem/internal/obs"
)

// EngineVersion names the semantic version of the checking engine baked
// into every verdict and sat key. Bump it whenever the engine's verdict
// or witness semantics change: old records become unreachable (different
// keys) instead of serving stale verdicts. Version 2 retired the
// history-pair reduction, whose passes could be wrong.
const EngineVersion = 2

// layoutDir is the directory-layout version; segments live under
// <dir>/v2/<creation time>.seg. Version 1 kept one file per record
// under <dir>/v1/<first two hex of key>/<key>-<kind>; a read-write Open
// deletes that tree.
const (
	layoutDir    = "v2"
	oldLayoutDir = "v1"
)

// Mode selects how the store participates in a run.
type Mode int

// The cache modes of the -cache flag.
const (
	// Off disables the store entirely.
	Off Mode = iota
	// ReadOnly serves hits but never writes (useful for hermetic runs
	// against a pre-built cache).
	ReadOnly
	// ReadWrite serves hits and writes behind on misses — the default.
	ReadWrite
)

// ParseMode parses a -cache flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "ro":
		return ReadOnly, nil
	case "rw":
		return ReadWrite, nil
	default:
		return Off, fmt.Errorf("store: unknown cache mode %q (want off, ro or rw)", s)
	}
}

func (m Mode) String() string {
	switch m {
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	default:
		return "off"
	}
}

// Stats counts this process's store traffic; the same numbers feed the
// obs counters (store.hit/store.miss/store.write/store.evict) when the
// collector is enabled, but Stats works regardless so tests and embedders
// need not enable tracing.
type Stats struct {
	Hits, Misses, Writes, Evictions int64
}

// Store is a handle on one on-disk cache directory. Methods are safe for
// concurrent use and for nil receivers (every operation on a nil or Off
// store is a miss or a no-op).
//
// The directory holds segment files, each written by one handle: a
// handle creates its segment on its first write and appends every
// record it writes to it, so concurrent processes never share a file.
// Open reads every segment, oldest first, into an index from record to
// frame; a later frame for the same record, in a later segment or later
// in one, replaces an earlier one, which makes a campaign manifest a
// mutable head. A lookup is an index probe plus one positioned read,
// and a write is one append that the handle's later lookups see at
// once. A handle keeps its own segment, and each segment it has read
// from, open for as long as it lives, which for the CLIs is the
// process.
type Store struct {
	dir  string // <dir>/v2
	mode Mode

	mu    sync.RWMutex
	index map[recordID]location
	segs  map[string]*segment // by file name
	own   *segment            // this handle's segment; nil until its first write
	// stuck is set when creating or appending to the handle's segment
	// failed: a torn frame would hide every frame after it, so the
	// handle writes nothing more.
	stuck bool
	buf   []byte // frame buffer of appends, under mu

	specHashes sync.Map // *spec.Spec → gemlang.HashSpec; see hashSpec

	hits, misses, writes, evicts atomic.Int64
}

// segment is one segment file as a handle knows it.
type segment struct {
	name    string
	created time.Time // from the name
	records int64     // frames indexed from it, or appended to it
	size    int64     // the append offset of the handle's own segment
	gone    bool      // deleted by Trim; under Store.mu

	fmu sync.Mutex
	f   *os.File // opened on the first read; the append descriptor of the handle's own segment
}

// location is where a record's frame lies.
type location struct {
	seg *segment
	off int64
	n   int
}

// DefaultDir returns the cache directory used when -cache-dir is not
// given: $GEM_CACHE_DIR if set, else <os.UserCacheDir>/gem.
func DefaultDir() (string, error) {
	if d := os.Getenv("GEM_CACHE_DIR"); d != "" {
		return d, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache dir (set GEM_CACHE_DIR or -cache-dir): %w", err)
	}
	return filepath.Join(base, "gem"), nil
}

// Open returns a store rooted at dir. Off mode returns (nil, nil): a nil
// *Store is a valid, always-missing store, so callers can thread it
// unconditionally. ReadWrite creates the directory and deletes a
// version-1 tree left by older builds; ReadOnly does neither (a missing
// directory just misses on every lookup). Either mode reads the index
// of every segment; neither creates a file until the first write.
func Open(dir string, mode Mode) (*Store, error) {
	if mode == Off {
		return nil, nil
	}
	s := &Store{dir: filepath.Join(dir, layoutDir), mode: mode, index: map[recordID]location{}, segs: map[string]*segment{}}
	if mode == ReadWrite {
		if err := os.MkdirAll(s.dir, 0o777); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// Best effort: its records are unreachable under this record
		// version, and a leftover only costs disk.
		_ = os.RemoveAll(filepath.Join(dir, oldLayoutDir))
	}
	s.load()
	return s, nil
}

// load indexes every segment in name order, that is oldest first, so a
// later frame of a record replaces an earlier one. A segment that cannot
// be read is skipped: its records miss.
func (s *Store) load() {
	entries, _ := os.ReadDir(s.dir) // a missing directory is an empty store
	for _, e := range entries {
		created, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue
		}
		g := &segment{name: e.Name(), created: created}
		scanSegment(data, func(id recordID, off, n int) {
			s.index[id] = location{seg: g, off: int64(off), n: n}
			g.records++
		})
		s.segs[g.name] = g
	}
}

// segmentName names a segment created at t: its creation time in
// nanoseconds as 16 hex digits, so names sort by creation.
func segmentName(t time.Time) string {
	return fmt.Sprintf("%016x.seg", t.UnixNano())
}

// parseSegmentName returns the creation time a segment name records;
// ok is false for any other file.
func parseSegmentName(name string) (created time.Time, ok bool) {
	stamp, found := strings.CutSuffix(name, ".seg")
	if !found || len(stamp) != 16 {
		return time.Time{}, false
	}
	ns, err := strconv.ParseUint(stamp, 16, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Unix(0, int64(ns)), true
}

// Stats returns a snapshot of this handle's traffic counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evicts.Load(),
	}
}

// touchInterval bounds how stale a segment may be before a hit on one
// of its records copies the record forward into the handle's own
// segment. Trim evicts the oldest segments first, so without the copy
// the hottest records — oldest-written, most-read — would be exactly
// the ones a sustained campaign's Trim evicts first; with it, a record
// read in the last interval outlives its unread neighbours, at one
// append per record per interval.
const touchInterval = time.Hour

// read fetches the payload of a record. Any failure — no such record,
// an evicted segment, a frame changed on disk since Open indexed it —
// is reported as a miss; the caller is responsible for hit/miss
// accounting (a read that succeeds here can still become a miss if the
// payload fails semantic validation upstream). Every payload returned
// has passed its frame's checksum on this read.
func (s *Store) read(key digest, kind byte) ([]byte, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	id := recordID{key, kind}
	s.mu.RLock()
	loc, ok := s.index[id]
	ok = ok && !loc.seg.gone
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	payload, ok := s.readFrame(id, loc)
	if ok && s.mode == ReadWrite && time.Since(loc.seg.created) >= touchInterval {
		s.copyForward(id, loc.seg, payload)
	}
	return payload, ok
}

// readFrame reads and checks the frame at loc.
func (s *Store) readFrame(id recordID, loc location) ([]byte, bool) {
	g := loc.seg
	g.fmu.Lock()
	if g.f == nil {
		f, err := os.Open(filepath.Join(s.dir, g.name))
		if err != nil {
			g.fmu.Unlock()
			return nil, false
		}
		g.f = f
	}
	f := g.f
	g.fmu.Unlock()
	frame := make([]byte, loc.n)
	if _, err := f.ReadAt(frame, loc.off); err != nil {
		return nil, false
	}
	got, payload, n, err := decodeRecord(frame)
	if err != nil || n != loc.n || got != id {
		return nil, false
	}
	return payload, true
}

// copyForward appends a record read from the stale segment from to the
// handle's own segment, unless an earlier hit already moved it.
func (s *Store) copyForward(id recordID, from *segment, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if loc, ok := s.index[id]; ok && loc.seg == from && from != s.own {
		s.appendLocked(id, payload)
	}
}

// write appends a record to the handle's segment, unless the index
// already holds it with the same payload in a segment younger than
// touchInterval: a rerun that puts what it read, such as a campaign's
// corpus, then appends nothing. An identical record in an older segment
// is appended, as a hit's copy-forward would append it, so Trim keeps
// what a live campaign still puts. Errors are swallowed: the store is an
// accelerator, never a source of run failures.
func (s *Store) write(key digest, kind byte, payload []byte) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	id := recordID{key, kind}
	s.mu.Lock()
	ok := !s.holdsLocked(id, payload) && s.appendLocked(id, payload)
	s.mu.Unlock()
	if ok {
		s.writes.Add(1)
		obs.Count("store.write", 1)
	}
}

// holdsLocked reports whether the index holds id with payload in a
// segment younger than touchInterval. Callers hold mu.
func (s *Store) holdsLocked(id recordID, payload []byte) bool {
	loc, ok := s.index[id]
	if !ok || loc.seg.gone || time.Since(loc.seg.created) >= touchInterval {
		return false
	}
	old, ok := s.readFrame(id, loc)
	return ok && bytes.Equal(old, payload)
}

// appendLocked appends one frame to the handle's segment, creating the
// segment first if this is the handle's first write, and indexes it.
// The frame reaches the file before appendLocked returns. Callers hold
// mu.
func (s *Store) appendLocked(id recordID, payload []byte) bool {
	if s.stuck {
		return false
	}
	if s.own == nil {
		g, err := createSegment(s.dir)
		if err != nil {
			s.stuck = true
			return false
		}
		s.own = g
		s.segs[g.name] = g
	}
	g := s.own
	s.buf = appendRecord(s.buf[:0], id, payload)
	if _, err := g.f.Write(s.buf); err != nil {
		s.stuck = true
		return false
	}
	s.index[id] = location{seg: g, off: g.size, n: len(s.buf)}
	g.size += int64(len(s.buf))
	g.records++
	return true
}

// createSegment creates a new segment file named by the current time,
// exclusively: a name another handle took already is retried one
// nanosecond later, so every handle appends to a file of its own.
func createSegment(dir string) (*segment, error) {
	t := time.Now()
	for {
		name := segmentName(t)
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o666)
		if err == nil {
			return &segment{name: name, created: t, f: f}, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		t = t.Add(time.Nanosecond)
	}
}

func (s *Store) hit() {
	s.hits.Add(1)
	obs.Count("store.hit", 1)
}

func (s *Store) miss() {
	if s == nil {
		return
	}
	s.misses.Add(1)
	obs.Count("store.miss", 1)
}

// Trim deletes whole segments, oldest first, until the store fits in
// budget bytes (0 uses DefaultBudget), and counts the records of each
// deleted segment as evictions. CLI runs call it once per rw open, so
// the cache is bounded without a daemon. Errors are ignored (a
// half-trimmed cache is still a correct cache).
func (s *Store) Trim(budget int64) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type file struct {
		name string
		size int64
	}
	var files []file
	var total int64
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{e.Name(), info.Size()})
		total += info.Size()
	}
	// ReadDir sorts by name, and names sort by creation.
	for _, f := range files {
		if total <= budget {
			break
		}
		if n, ok := s.evict(f.name); ok {
			total -= f.size
			s.evicts.Add(n)
			obs.Count("store.evict", n)
		}
	}
}

// evict deletes one segment file and returns how many records it held.
// Its index entries stay, marked gone, and miss from then on; a record
// written again replaces its entry.
func (s *Store) evict(name string) (records int64, ok bool) {
	path := filepath.Join(s.dir, name)
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.segs[name]
	if g != nil {
		records = g.records
	} else if data, err := os.ReadFile(path); err == nil {
		// Created by another handle since this one's Open.
		scanSegment(data, func(recordID, int, int) { records++ })
	}
	if os.Remove(path) != nil {
		return 0, false
	}
	if g != nil {
		g.gone = true
		delete(s.segs, name)
		g.fmu.Lock()
		if g.f != nil {
			g.f.Close()
		}
		g.fmu.Unlock()
		if g == s.own {
			s.own = nil
		}
	}
	return records, true
}

// DefaultBudget bounds the cache size Trim enforces by default (1 GiB,
// overridable per call and via GEM_CACHE_BUDGET in the CLIs).
const DefaultBudget int64 = 1 << 30

// EnvBudget returns the Trim budget configured via GEM_CACHE_BUDGET (in
// bytes), or 0 — meaning DefaultBudget — when unset. A malformed or
// non-positive value also falls back to 0, but emits a one-line warning
// on warn (nil suppresses it): a misconfigured budget must not look
// identical to an unset one.
func EnvBudget(warn io.Writer) int64 {
	raw := os.Getenv("GEM_CACHE_BUDGET")
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n <= 0 {
		if warn != nil {
			fmt.Fprintf(warn, "store: ignoring GEM_CACHE_BUDGET=%q (want a positive byte count), using default %d\n", raw, DefaultBudget)
		}
		return 0
	}
	return n
}

// OpenFromFlags implements the -cache/-cache-dir flag pair that
// internal/cli declares for gemverify, gemcheck and gemmut (the bench
// harness calls it too): parse the mode, resolve the directory (the
// flag value, else DefaultDir), open, and Trim a read-write store to the
// EnvBudget. An unknown mode is an error — that's a flag typo. An
// unusable cache directory is not: the store is an accelerator, never a
// prerequisite, so the run degrades to uncached with a warning on warn.
func OpenFromFlags(modeStr, dir string, warn io.Writer) (*Store, error) {
	mode, err := ParseMode(modeStr)
	if err != nil {
		return nil, err
	}
	if mode == Off {
		return nil, nil
	}
	if dir == "" {
		dir, err = DefaultDir()
		if err != nil {
			fmt.Fprintln(warn, "cache disabled:", err)
			return nil, nil
		}
	}
	st, err := Open(dir, mode)
	if err != nil {
		fmt.Fprintln(warn, "cache disabled:", err)
		return nil, nil
	}
	st.Trim(EnvBudget(warn))
	return st, nil
}
