package cli

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestEmptyPathsAreNoOps(t *testing.T) {
	stop, err := startCPU("")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if err := writeHeap(""); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := startCPU(cpu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	stop()
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}

	heap := filepath.Join(dir, "heap.pprof")
	if err := writeHeap(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
}

func TestUnwritablePathErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := startCPU(bad); err == nil {
		t.Error("startCPU should fail on an unwritable path")
	}
	if err := writeHeap(bad); err == nil {
		t.Error("writeHeap should fail on an unwritable path")
	}

	if os.Getuid() != 0 {
		// A read-only directory only rejects non-root writers; root
		// (and CI containers running as root) bypasses the mode bits.
		rodir := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(rodir, 0o500); err != nil {
			t.Fatal(err)
		}
		if err := writeHeap(filepath.Join(rodir, "p.pprof")); err == nil {
			t.Error("writeHeap should fail in a read-only directory")
		}
	}
}

// TestWriteHeapReportsCloseFailure is the regression test for the
// swallowed-close-error bug: writeHeap used to `defer f.Close()`,
// discarding the close error. That error is the only failure channel
// for a whole class of faults, because the runtime's heap-profile
// writer discards write errors internally — pprof.WriteHeapProfile to
// /dev/full (every write fails with ENOSPC) returns nil. A profile
// "written" to an already-closed file must therefore report the close
// failure instead of success.
func TestWriteHeapReportsCloseFailure(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "heap.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeHeapTo(f); err == nil {
		t.Error("writeHeapTo on a closed file reported success for a profile that was never stored")
	}
}

// TestWriteHeapSwallowedWriteError documents why the close error above
// matters: the runtime reports no error even when every write fails.
// If this ever starts failing, the runtime began propagating write
// errors and the close-error path has a second line of defense.
func TestWriteHeapSwallowedWriteError(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/dev/full is linux-only")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	if err := writeHeap("/dev/full"); err != nil {
		t.Logf("runtime now propagates heap-profile write errors: %v", err)
	}
}
