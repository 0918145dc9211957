package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gem/internal/check"
	"gem/internal/logic"
)

// A segment cut short in the middle of a frame, as a crash mid-append
// leaves it, still serves every record before the cut; the torn record
// misses. A corrupt frame ends the segment's index the same way: the
// intact frames after it miss too, since nothing after a bad frame can
// be trusted to start at a frame boundary.
func TestTornSegmentServesEarlierRecords(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bad   int // the record whose frame is damaged
		tear  bool
		serve int // the records still served
	}{
		{"torn", 5, true, 5},
		{"corrupt", 2, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := openStore(t, dir, ReadWrite)
			keys := make([]string, 6)
			for i := range keys {
				keys[i] = CorpusKey("spec", fmt.Sprint(i))
				w.PutCorpus(keys[i], []byte(strings.Repeat("x", i+1)))
			}
			bad := w.index[recordID{mustParse(t, keys[tc.bad]), kindCorpus}]
			path := segmentFiles(t, dir)[0]
			if tc.tear {
				if err := os.Truncate(path, bad.off+int64(bad.n)/2); err != nil {
					t.Fatal(err)
				}
			} else {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[bad.off+int64(bad.n)-5] ^= 0xff // the payload's last byte
				if err := os.WriteFile(path, data, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			s := openStore(t, dir, ReadOnly)
			for i, k := range keys {
				got, ok := s.GetCorpus(k)
				if i < tc.serve && (!ok || len(got) != i+1) {
					t.Errorf("record %d before the damage: GetCorpus = %q, %v", i, got, ok)
				}
				if i >= tc.serve && ok {
					t.Errorf("record %d at or after the damaged frame was served", i)
				}
			}
		})
	}
}

func mustParse(t *testing.T, corpusKey string) digest {
	t.Helper()
	k, ok := parseCorpusKey(corpusKey)
	if !ok {
		t.Fatalf("bad corpus key %q", corpusKey)
	}
	return k
}

// Two handles on one directory append to two segments. A third handle
// sees the records of both; for a record both wrote, the later segment
// wins, and within a segment the later frame.
func TestHandlesWriteTheirOwnSegments(t *testing.T) {
	dir := t.TempDir()
	first, second := openStore(t, dir, ReadWrite), openStore(t, dir, ReadWrite)
	first.PutCorpus(CorpusKey("spec", "a"), []byte("from first"))
	first.PutManifest("campaign", []byte("first"))
	second.PutCorpus(CorpusKey("spec", "b"), []byte("from second"))
	second.PutManifest("campaign", []byte("second"))
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Fatalf("two writing handles made %d segments, want 2", n)
	}
	third := openStore(t, dir, ReadOnly)
	for _, want := range []struct{ key, payload string }{
		{CorpusKey("spec", "a"), "from first"},
		{CorpusKey("spec", "b"), "from second"},
	} {
		if got, ok := third.GetCorpus(want.key); !ok || string(got) != want.payload {
			t.Errorf("GetCorpus = %q, %v; want %q", got, ok, want.payload)
		}
	}
	if got, ok := third.GetManifest("campaign"); !ok || string(got) != "second" {
		t.Errorf("GetManifest = %q, %v; want the later segment's", got, ok)
	}
	second.PutManifest("campaign", []byte("second, again"))
	if got, ok := openStore(t, dir, ReadOnly).GetManifest("campaign"); !ok || string(got) != "second, again" {
		t.Errorf("GetManifest = %q, %v; want the later frame's", got, ok)
	}
	if got, _ := second.GetManifest("campaign"); string(got) != "second, again" {
		t.Errorf("the writing handle reads %q back, not its own write", got)
	}
}

// A read-write handle that only looks records up, hits and misses
// alike, creates no file.
func TestReadingHandleCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	k := CorpusKey("spec", "fp")
	if _, ok := openStore(t, dir, ReadWrite).GetCorpus(k); ok {
		t.Fatal("hit in an empty store")
	}
	if n := len(segmentFiles(t, dir)); n != 0 {
		t.Fatalf("a handle that only missed made %d segments", n)
	}
	openStore(t, dir, ReadWrite).PutCorpus(k, []byte("entry"))
	before := segmentFiles(t, dir)
	s := openStore(t, dir, ReadWrite)
	s.GetCorpus(k)
	s.GetManifest("absent")
	if after := segmentFiles(t, dir); !slices.Equal(before, after) {
		t.Fatalf("segments %v after reads, want %v", after, before)
	}
}

// snapshot renders every file under dir with its size, mode, time and
// contents.
func snapshot(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d %v %v\n", path, info.Size(), info.Mode(), info.ModTime())
		if !d.IsDir() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%x\n", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// -cache ro creates, appends and deletes nothing: not on a stale hit
// (no copy), not on a write, not in Trim, and it leaves a version-1
// tree where it is. A read-write open deletes that tree.
func TestReadOnlyChangesNothing(t *testing.T) {
	dir := t.TempDir()
	k := CorpusKey("spec", "fp")
	openStore(t, dir, ReadWrite).PutCorpus(k, []byte("entry"))
	backdateSegments(t, dir, 2*time.Hour)
	old := filepath.Join(dir, oldLayoutDir, "ab", "ab00-1")
	if err := os.MkdirAll(filepath.Dir(old), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("a version-1 record"), 0o666); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, dir)

	s, err := OpenFromFlags("ro", dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCorpus(k); !ok {
		t.Fatal("read-only handle missed a stored record")
	}
	s.PutCorpus(CorpusKey("spec", "new"), []byte("entry"))
	s.PutManifest("campaign", []byte("manifest"))
	s.Store(logic.VerdictKey(verdictKey(logic.TrueF{}, randComp(rand.New(rand.NewSource(1)), 4))), nil)
	s.Trim(1)
	if after := snapshot(t, dir); after != before {
		t.Fatalf("a read-only handle changed the store:\n--- before\n%s--- after\n%s", before, after)
	}
	if st := s.Stats(); st.Writes != 0 || st.Evictions != 0 {
		t.Errorf("read-only handle counted %+v", st)
	}

	openStore(t, dir, ReadWrite)
	if _, err := os.Stat(filepath.Join(dir, oldLayoutDir)); !os.IsNotExist(err) {
		t.Errorf("a read-write open left the version-1 tree (stat: %v)", err)
	}
}

// Trim deletes the oldest segments first, until the rest fit the
// budget, and counts each deleted segment's records as evictions.
func TestTrimEvictsOldestSegmentsFirst(t *testing.T) {
	dir := t.TempDir()
	var keys [][]string
	for seg := 0; seg < 3; seg++ {
		w := openStore(t, dir, ReadWrite)
		var ks []string
		for i := 0; i <= seg; i++ {
			k := CorpusKey(fmt.Sprint(seg), fmt.Sprint(i))
			w.PutCorpus(k, bytes.Repeat([]byte("p"), 100))
			ks = append(ks, k)
		}
		keys = append(keys, ks)
	}
	files := segmentFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("three writing handles made %d segments", len(files))
	}
	size := func(path string) int64 {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	s := openStore(t, dir, ReadWrite)
	s.Trim(size(files[1]) + size(files[2]))
	if got := s.Stats().Evictions; got != 1 {
		t.Errorf("Evictions = %d, want 1 (the oldest segment's one record)", got)
	}
	if left := segmentFiles(t, dir); !slices.Equal(left, files[1:]) {
		t.Errorf("segments %v left, want %v", left, files[1:])
	}
	s.Trim(size(files[2]))
	if got := s.Stats().Evictions; got != 3 {
		t.Errorf("Evictions = %d, want 3 after the second segment's two", got)
	}
	for seg, ks := range keys {
		for _, k := range ks {
			if _, ok := s.GetCorpus(k); ok != (seg == 2) {
				t.Errorf("segment %d record: hit = %v after trimming to the newest segment", seg, ok)
			}
		}
	}
}

// TestStoreKeyDigest pins the store's keys. A -j 1 priming run of the
// matrix and its refutations writes 1,400 records: 1,253
// per-restriction verdicts and 147 whole-check sat records. Their keys
// are computation fingerprints, spec hashes and correspondence keys, so
// a change that moves any of them silently orphans every store on disk:
// the sorted "<hex key>-<kind>" names must hash to this value, which is
// the digest of the record file names of the one-file-per-record layout.
// When a key really must change, update it here and say why. (Engine
// version 2 retired the history-pair reduction and the engine name every
// key carried.)
func TestStoreKeyDigest(t *testing.T) {
	s := openStore(t, t.TempDir(), ReadWrite)
	opts := check.Options{Parallelism: 1, Cache: s}
	if _, err := check.RunMatrixCells(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	if err := check.RunRefutations(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	if w := s.Stats().Writes; w != 1400 {
		t.Fatalf("priming run wrote %d records, want 1400", w)
	}
	var names []string
	for id := range s.index {
		names = append(names, fmt.Sprintf("%s-%d\n", hex.EncodeToString(id.key[:]), id.kind))
	}
	slices.Sort(names)
	sum := sha256.Sum256([]byte(strings.Join(names, "")))
	const want = "409e547729c3b80a9baca9afc91e28270c418ea877c759e242000df1af84438d"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("the priming run's %d record names hash to %s, want %s: the store keys moved", len(names), got, want)
	}
}
