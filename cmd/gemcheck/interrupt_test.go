package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestInterruptFlushesProfileAndTrace is the regression test for the
// truncated--cpuprofile-on-SIGINT bug: interrupting a gemcheck run used
// to kill the process before pprof.StopCPUProfile ran, leaving a
// truncated gzip stream no tool could read. With the signal-aware
// context the command must instead exit non-zero with an "interrupted"
// error while both profiles and the trace file are complete and
// parseable. The heap profile guards a second bug: it used to be
// written only on the success path, so an interrupted run left none.
//
// The subprocess is interrupted partway through the rw matrix. The
// sleep before the signal is halved on every attempt that completes
// before the signal lands, so the test stays robust on fast machines
// without ever waiting long on a slow one.
func TestInterruptFlushesProfileAndTrace(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no os.Interrupt delivery on windows")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gemcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gemcheck: %v\n%s", err, out)
	}

	for attempt, sleep := 0, 50*time.Millisecond; attempt < 5; attempt, sleep = attempt+1, sleep/2 {
		cpu := filepath.Join(dir, "cpu.pprof")
		mem := filepath.Join(dir, "mem.pprof")
		trace := filepath.Join(dir, "trace.json")
		cmd := exec.Command(bin, "-j", "1", "-cpuprofile="+cpu, "-memprofile="+mem, "-trace="+trace, "rw")
		cmd.Stdout = io.Discard
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(sleep)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if err == nil {
			// The run finished before the signal landed; retry with a
			// shorter head start.
			continue
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("interrupted gemcheck: %v (want exit code 1), stderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "interrupted") {
			t.Errorf("stderr does not report the interruption:\n%s", stderr.String())
		}
		checkProfile(t, "cpu", cpu)
		checkProfile(t, "heap", mem)
		checkTraceFile(t, trace)
		return
	}
	t.Fatal("gemcheck finished before every signal attempt; could not exercise the interrupt path")
}

// checkProfile asserts the profile is a complete gzip stream (pprof
// profiles are gzipped protobuf); a profile truncated by the old SIGINT
// handling fails the decode with an unexpected EOF, and one never
// written fails the open.
func checkProfile(t *testing.T, kind, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%s profile missing after interrupt: %v", kind, err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s profile is not a gzip stream: %v", kind, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s profile is truncated: %v", kind, err)
	}
	if cerr := zr.Close(); cerr != nil {
		t.Fatalf("%s profile gzip checksum invalid: %v", kind, cerr)
	}
	if len(raw) == 0 {
		t.Fatalf("%s profile is empty", kind)
	}
}

// checkTraceFile asserts the interrupted run still flushed a valid
// trace-event JSON document (possibly with few spans, never malformed).
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file missing after interrupt: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if tf.TraceEvents == nil {
		t.Fatal("trace file has no traceEvents array")
	}
}
