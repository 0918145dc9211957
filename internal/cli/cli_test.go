package cli

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gem/internal/obs"
)

// parse returns a tool with every shared flag, parsed from args.
func parse(t *testing.T, args ...string) *Tool {
	t.Helper()
	tool := New("test", io.Discard, Checks|Engine|Diagnostics)
	if err := tool.FS.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tool
}

// TestTeardownOnError: a run that fails still stops the CPU profile,
// writes the heap profile and flushes the trace, and each output is
// complete.
func TestTeardownOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, trace := filepath.Join(dir, "cpu"), filepath.Join(dir, "mem"), filepath.Join(dir, "trace.json")
	tool := parse(t, "-cpuprofile", cpu, "-memprofile", mem, "-trace", trace)
	failed := errors.New("the run failed")
	err := tool.Run(func() error {
		_, sp := obs.StartSpan(context.Background(), "work")
		sp.End()
		return failed
	})
	if err != failed {
		t.Fatalf("Run = %v, want the run's own error", err)
	}
	for _, p := range []string{cpu, mem} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		f.Close()
		if err != nil {
			t.Errorf("%s is not a complete gzip stream: %v", p, err)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace is not a trace-event document with events (%v):\n%s", err, data)
	}
}

// TestTeardownErrorNeverMasks: a failed heap-profile or trace write is
// the run's error when the run succeeded, and never replaces the run's
// own error.
func TestTeardownErrorNeverMasks(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out")
	failed := errors.New("the run failed")
	for _, flag := range []string{"-memprofile", "-trace"} {
		if err := parse(t, flag, bad).Run(func() error { return nil }); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s to an unwritable path: Run = %v, want the write error", flag, err)
		}
		if err := parse(t, flag, bad).Run(func() error { return failed }); err != failed {
			t.Errorf("%s to an unwritable path: Run = %v, want the run's own error", flag, err)
		}
	}
}

// TestCacheOffIsNilInterface: with -cache off the cache is a nil
// interface, not a nil *store.Store inside one.
func TestCacheOffIsNilInterface(t *testing.T) {
	st, cache, err := parse(t, "-cache", "off").OpenStore()
	if err != nil || st != nil || cache != nil {
		t.Fatalf("OpenStore = %v, %#v, %v; want nil, nil, nil", st, cache, err)
	}
	st, cache, err = parse(t, "-cache", "rw", "-cache-dir", t.TempDir()).OpenStore()
	if err != nil || st == nil || cache == nil {
		t.Fatalf("-cache rw: OpenStore = %v, %v, %v; want a store", st, cache, err)
	}
	if _, _, err := parse(t, "-cache", "sometimes").OpenStore(); err == nil {
		t.Error("an unknown -cache mode must fail")
	}
}

// TestInterrupted: a cancelled context turns any result into the
// interrupted error; a live one passes the result through.
func TestInterrupted(t *testing.T) {
	failed := errors.New("the run failed")
	if err := Interrupted(context.Background(), failed); err != failed {
		t.Errorf("live context: %v, want the run's error", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, err := range []error{nil, failed} {
		if got := Interrupted(ctx, err); got == nil || !strings.HasPrefix(got.Error(), "interrupted (partial results): ") {
			t.Errorf("cancelled context, run error %v: %v, want an interrupted error", err, got)
		}
	}
}

// TestRunContextSIGINT: SIGINT cancels the run's context instead of
// killing the process, and the run reports the interruption.
func TestRunContextSIGINT(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no os.Interrupt delivery on windows")
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	err = parse(t).RunContext(func(ctx context.Context) error {
		if err := self.Signal(os.Interrupt); err != nil {
			return err
		}
		<-ctx.Done()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("RunContext = %v, want an interrupted error", err)
	}
}

// TestUnknownFormat: an unknown -format fails before the run starts.
func TestUnknownFormat(t *testing.T) {
	ran := false
	if err := parse(t, "-format", "xml").Run(func() error { ran = true; return nil }); err == nil || ran {
		t.Errorf("-format xml: Run = %v, body ran = %v; want an error before the body", err, ran)
	}
}
