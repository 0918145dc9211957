package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gem/internal/cli/clitest"
)

// TestMain points the persistent result store at a throwaway directory:
// the rw subcommand opens it by default (-cache rw), and tests — and
// the interrupt test's subprocess, which inherits the environment —
// must never touch the real user cache dir.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gemcheck-test-cache-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("GEM_CACHE_DIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestChecks(t *testing.T) {
	for _, sub := range []string{"access", "histories", "rw", "distributed"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			if err := run([]string{sub}, io.Discard, io.Discard); err != nil {
				t.Fatalf("gemcheck %s: %v", sub, err)
			}
		})
	}
}

// TestArtifactGolden pins the paper's Section 4 group-access table and
// its Section 7 history and valid-history-sequence enumeration.
func TestArtifactGolden(t *testing.T) {
	for _, sub := range []string{"access", "histories"} {
		var out bytes.Buffer
		if err := run([]string{sub}, &out, io.Discard); err != nil {
			t.Fatalf("gemcheck %s: %v", sub, err)
		}
		clitest.Golden(t, sub+".golden", out.String())
	}
}

// TestRWIdenticalAcrossParallelism: the rw variant table is the same,
// byte for byte, on one checking worker and on four.
func TestRWIdenticalAcrossParallelism(t *testing.T) {
	// fanout caps workers at GOMAXPROCS; lift it so -j 4 runs four.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var tables []string
	for _, j := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-j", j, "-cache", "off", "rw"}, &out, io.Discard); err != nil {
			t.Fatalf("gemcheck -j %s rw: %v", j, err)
		}
		tables = append(tables, out.String())
	}
	if tables[0] != tables[1] || !strings.Contains(tables[0], "readers-priority") {
		t.Errorf("rw tables differ or are empty:\n--- -j 1 ---\n%s--- -j 4 ---\n%s", tables[0], tables[1])
	}
}

// TestEngineFlagRoundTrip: every engine name the flag documents is
// accepted and runs the rw matrix to the same successful completion;
// unknown names are rejected at flag-handling time, before any work.
func TestEngineFlagRoundTrip(t *testing.T) {
	for _, engine := range []string{"auto", "lattice", "seq"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			if err := run([]string{"-engine", engine, "-j", "1", "rw"}, io.Discard, io.Discard); err != nil {
				t.Fatalf("gemcheck -engine %s rw: %v", engine, err)
			}
		})
	}
	if err := run([]string{"-engine", "warp", "rw"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown engine name must be rejected")
	}
}

// TestProfileFlags: -cpuprofile and -memprofile produce non-empty pprof
// files, and an unwritable profile path fails the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "access"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("gemcheck with profiles: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	bad := filepath.Join(dir, "no-such-dir", "cpu.pprof")
	if err := run([]string{"-cpuprofile", bad, "access"}, io.Discard, io.Discard); err == nil {
		t.Error("unwritable cpu profile path must fail")
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Error("no arguments must fail")
	}
	if err := run([]string{"bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown check must fail")
	}
}

// TestFlagSurface pins gemcheck's flags and their defaults.
func TestFlagSurface(t *testing.T) {
	var usage strings.Builder
	run([]string{"-h"}, io.Discard, &usage)
	want := `-cache=rw
-cache-dir=
-cpuprofile=
-engine=auto
-j=NumCPU
-memprofile=
-stats=
-trace=`
	if got := clitest.Surface(usage.String()); got != want {
		t.Errorf("flags:\n%s\nwant:\n%s", got, want)
	}
}
