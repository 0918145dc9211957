package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openStore opens the store rooted at dir.
func openStore(t *testing.T, dir string, mode Mode) *Store {
	t.Helper()
	s, err := Open(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// backdateSegments renames every segment of the store rooted at dir as
// if it had been created age ago, keeping their order.
func backdateSegments(t *testing.T, dir string, age time.Duration) {
	t.Helper()
	for i, path := range segmentFiles(t, dir) {
		old := filepath.Join(filepath.Dir(path), segmentName(time.Now().Add(-age+time.Duration(i))))
		if err := os.Rename(path, old); err != nil {
			t.Fatal(err)
		}
	}
}

// A read hit on a record whose segment is older than touchInterval
// copies the record into the handle's own segment, once: the handle's
// later hits read the copy.
func TestStaleHitCopiesForward(t *testing.T) {
	dir := t.TempDir()
	k := CorpusKey("spec", "fp")
	openStore(t, dir, ReadWrite).PutCorpus(k, []byte("payload"))
	backdateSegments(t, dir, 2*time.Hour)

	s := openStore(t, dir, ReadWrite)
	for i := 0; i < 3; i++ {
		if got, ok := s.GetCorpus(k); !ok || string(got) != "payload" {
			t.Fatalf("read %d: GetCorpus = %q, %v; want payload, true", i, got, ok)
		}
	}
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Fatalf("%d segments after a stale hit, want the old one and the copy's", n)
	}
	if s.own == nil || s.own.records != 1 {
		t.Fatal("the stale hit was not copied forward exactly once")
	}
	if st := s.Stats(); st.Writes != 0 || st.Hits != 3 {
		t.Errorf("stats %+v: a copy is neither a write nor a miss", st)
	}
}

// Hits on a segment younger than touchInterval copy nothing: a hot
// record costs one append per interval, not one per read, and a handle
// that only reads creates no file.
func TestFreshHitIsNotCopied(t *testing.T) {
	dir := t.TempDir()
	k := CorpusKey("spec", "fp")
	openStore(t, dir, ReadWrite).PutCorpus(k, []byte("payload"))
	backdateSegments(t, dir, 30*time.Minute)
	before := segmentFiles(t, dir)

	s := openStore(t, dir, ReadWrite)
	if _, ok := s.GetCorpus(k); !ok {
		t.Fatal("expected corpus hit")
	}
	if after := segmentFiles(t, dir); len(after) != 1 || after[0] != before[0] {
		t.Fatalf("segments %v after a fresh hit, want %v", after, before)
	}
}

// A just-read record survives a Trim that evicts its never-read
// neighbour, although both were written to the oldest segment.
func TestTrimKeepsCopiedForwardRecord(t *testing.T) {
	dir := t.TempDir()
	hot := CorpusKey("spec", "hot")
	cold := CorpusKey("spec", "cold")
	w := openStore(t, dir, ReadWrite)
	w.PutCorpus(hot, bytes.Repeat([]byte("h"), 64))
	w.PutCorpus(cold, bytes.Repeat([]byte("c"), 64))
	backdateSegments(t, dir, 3*time.Hour)

	s := openStore(t, dir, ReadWrite)
	if _, ok := s.GetCorpus(hot); !ok {
		t.Fatal("expected corpus hit")
	}
	s.Trim(s.own.size) // room for the copy's segment alone
	if got := s.Stats().Evictions; got != 2 {
		t.Fatalf("Evictions = %d, want 2 (the old segment's hot and cold)", got)
	}
	r := openStore(t, dir, ReadOnly)
	if _, ok := r.GetCorpus(hot); !ok {
		t.Fatal("Trim evicted the just-read record")
	}
	if _, ok := r.GetCorpus(cold); ok {
		t.Fatal("Trim kept the never-read neighbour")
	}
}

// A put of a record the index holds with the same payload, in a
// segment younger than touchInterval, appends nothing. A changed
// payload is appended and wins. An identical put to a stale segment is
// copied forward, as a hit would be, so Trim keeps what a live campaign
// still puts.
func TestIdenticalPutWritesNothing(t *testing.T) {
	k := CorpusKey("spec", "fp")
	payload := []byte("payload")
	t.Run("identical", func(t *testing.T) {
		dir := t.TempDir()
		w := openStore(t, dir, ReadWrite)
		w.PutCorpus(k, payload)
		w.PutCorpus(k, payload)
		if got := w.Stats().Writes; got != 1 {
			t.Fatalf("writing handle: %d writes of one record put twice, want 1", got)
		}
		before := snapshot(t, dir)

		s := openStore(t, dir, ReadWrite)
		s.PutCorpus(k, payload)
		if st := s.Stats(); st.Writes != 0 || s.own != nil {
			t.Errorf("stats %+v: an identical put wrote or created a segment", st)
		}
		if after := snapshot(t, dir); after != before {
			t.Errorf("store changed by an identical put:\n%s\nwant\n%s", after, before)
		}
	})
	t.Run("changed", func(t *testing.T) {
		dir := t.TempDir()
		openStore(t, dir, ReadWrite).PutManifest("campaign", []byte("old"))
		s := openStore(t, dir, ReadWrite)
		s.PutManifest("campaign", []byte("new"))
		if got := s.Stats().Writes; got != 1 {
			t.Errorf("%d writes of a changed payload, want 1", got)
		}
		if got, ok := openStore(t, dir, ReadOnly).GetManifest("campaign"); !ok || string(got) != "new" {
			t.Errorf("GetManifest = %q, %v; want new, true", got, ok)
		}
	})
	t.Run("stale", func(t *testing.T) {
		dir := t.TempDir()
		openStore(t, dir, ReadWrite).PutCorpus(k, payload)
		backdateSegments(t, dir, 2*time.Hour)
		s := openStore(t, dir, ReadWrite)
		s.PutCorpus(k, payload)
		s.PutCorpus(k, payload)
		if got := s.Stats().Writes; got != 1 {
			t.Errorf("%d writes of a record put twice into a stale segment, want 1", got)
		}
		if n := len(segmentFiles(t, dir)); n != 2 || s.own == nil || s.own.records != 1 {
			t.Fatalf("%d segments: the put was not copied forward exactly once", n)
		}
		s.Trim(s.own.size) // room for the copy's segment alone
		if got, ok := openStore(t, dir, ReadOnly).GetCorpus(k); !ok || string(got) != "payload" {
			t.Errorf("after Trim, GetCorpus = %q, %v; want payload, true", got, ok)
		}
	})
}

func TestEnvBudget(t *testing.T) {
	cases := []struct {
		name  string
		value string
		set   bool
		want  int64
		warns bool
	}{
		{name: "unset", want: 0, warns: false},
		{name: "empty", set: true, value: "", want: 0, warns: false},
		{name: "valid", set: true, value: "123456", want: 123456, warns: false},
		{name: "malformed", set: true, value: "1.5GB", want: 0, warns: true},
		{name: "negative", set: true, value: "-4096", want: 0, warns: true},
		{name: "zero", set: true, value: "0", want: 0, warns: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.set {
				t.Setenv("GEM_CACHE_BUDGET", tc.value)
			} else {
				t.Setenv("GEM_CACHE_BUDGET", "")
				os.Unsetenv("GEM_CACHE_BUDGET")
			}
			var warn bytes.Buffer
			if got := EnvBudget(&warn); got != tc.want {
				t.Fatalf("EnvBudget() = %d, want %d", got, tc.want)
			}
			if tc.warns != (warn.Len() > 0) {
				t.Fatalf("warns = %v, want %v (output %q)", warn.Len() > 0, tc.warns, warn.String())
			}
		})
	}
	// A nil warn writer must not panic on the warning path.
	t.Setenv("GEM_CACHE_BUDGET", "bogus")
	if got := EnvBudget(nil); got != 0 {
		t.Fatalf("EnvBudget(nil) = %d, want 0", got)
	}
}

// Corpus and manifest records ride the same framing, integrity, and
// accounting rules as verdicts: missing and corrupt entries miss, round
// trips hit.
func TestCorpusRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	k := CorpusKey("spechash", "fingerprint")
	if _, ok := s.GetCorpus(k); ok {
		t.Fatal("hit on absent corpus entry")
	}
	s.PutCorpus(k, []byte("entry"))
	got, ok := s.GetCorpus(k)
	if !ok || string(got) != "entry" {
		t.Fatalf("GetCorpus = %q, %v; want entry, true", got, ok)
	}
	s.PutManifest("campaign", []byte("manifest"))
	got, ok = s.GetManifest("campaign")
	if !ok || string(got) != "manifest" {
		t.Fatalf("GetManifest = %q, %v; want manifest, true", got, ok)
	}
	// Corrupt the corpus record on disk: a reopened store must miss it.
	corruptEveryFrame(t, dir, false)
	if _, ok := openStore(t, dir, ReadWrite).GetCorpus(k); ok {
		t.Fatal("hit on corrupt corpus entry")
	}
	// Nil store: every corpus operation is a miss / no-op.
	var nilStore *Store
	if _, ok := nilStore.GetCorpus(k); ok {
		t.Fatal("nil store hit")
	}
	nilStore.PutCorpus(k, nil)
	if _, ok := nilStore.GetManifest("campaign"); ok {
		t.Fatal("nil store manifest hit")
	}
}
