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
// fast-path guards and history lattices, are not persisted.
//
// The Store satisfies logic.VerdictCache and verify.SatCache
// structurally — those packages define the interfaces, this package
// implements them without importing them, so the engine layers stay
// store-free.
//
// Robustness rules: corrupt, truncated, or version-skewed records decode
// to a miss, never a wrong verdict (every record carries a magic,
// version, length, and checksum; every payload is validated against the
// live computation before use); concurrent writers stay safe via
// temp-file + atomic rename; all methods are nil-receiver-safe so a
// disabled cache can flow through call chains as a typed nil.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// layoutDir is the directory-layout version; records live under
// <dir>/v1/<first two hex of key>/<key>-<kind>.
const layoutDir = "v1"

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
type Store struct {
	dir  string
	mode Mode

	hits, misses, writes, evicts atomic.Int64
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
// unconditionally. ReadWrite creates the directory; ReadOnly does not
// (a missing directory just misses on every lookup).
func Open(dir string, mode Mode) (*Store, error) {
	if mode == Off {
		return nil, nil
	}
	if mode == ReadWrite {
		if err := os.MkdirAll(filepath.Join(dir, layoutDir), 0o777); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir, mode: mode}, nil
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

func (s *Store) path(key string, kind byte) string {
	return filepath.Join(s.dir, layoutDir, key[:2], fmt.Sprintf("%s-%d", key, kind))
}

// touchInterval throttles read-hit mtime refreshes: a record's mtime is
// only bumped when it is at least this stale, so a hot record costs one
// utimes per hour instead of one per read.
const touchInterval = time.Hour

// read fetches and unframes the record for key/kind. Any failure —
// missing file, corrupt or truncated record, kind mismatch — is reported
// as a miss; the caller is responsible for hit/miss accounting (a read
// that succeeds here can still become a miss if the payload fails
// semantic validation upstream).
//
// Trim evicts by mtime, so a successful read refreshes the record's
// mtime (throttled to touchInterval): without the touch, the hottest
// records — oldest-written, most-read — are exactly the ones a
// sustained campaign's Trim evicts first.
func (s *Store) read(key string, kind byte) ([]byte, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	path := s.path(key, kind)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	k, payload, err := decodeRecord(data)
	if err != nil || k != kind {
		return nil, false
	}
	if s.mode == ReadWrite {
		if info, err := os.Stat(path); err == nil {
			if now := time.Now(); now.Sub(info.ModTime()) >= touchInterval {
				_ = os.Chtimes(path, now, now) // best-effort: a failed touch is still a hit
			}
		}
	}
	return payload, true
}

// write frames and persists a record via temp-file + atomic rename, so
// concurrent writers (and a reader racing a writer) only ever observe
// complete records. Errors are swallowed: the store is an accelerator,
// never a source of run failures.
func (s *Store) write(key string, kind byte, payload []byte) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	bucket := filepath.Join(s.dir, layoutDir, key[:2])
	if err := os.MkdirAll(bucket, 0o777); err != nil {
		return
	}
	tmp, err := os.CreateTemp(bucket, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(encodeRecord(kind, payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key, kind)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.writes.Add(1)
	obs.Count("store.write", 1)
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

// Trim evicts least-recently-modified records until the store fits in
// budget bytes (0 uses DefaultBudget). CLI runs call it once per rw
// open, so the cache is bounded without a daemon. Eviction order is
// mtime, oldest first; errors are ignored (a half-trimmed cache is still
// a correct cache).
func (s *Store) Trim(budget int64) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	root := filepath.Join(s.dir, layoutDir)
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		entries = append(entries, entry{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if total <= budget {
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if total <= budget {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			s.evicts.Add(1)
			obs.Count("store.evict", 1)
		}
	}
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
