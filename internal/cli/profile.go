package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startCPU begins a CPU profile written to path and returns the stop
// function that must run before the process exits (Run defers it, so
// os.Exit in main cannot skip it). An empty path is a no-op.
func startCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeap records an allocation profile to path after forcing a
// collection, so the snapshot reflects live retention rather than
// garbage awaiting the next GC cycle. An empty path is a no-op. A
// failed Close is reported too: the profile data may still be buffered
// in the kernel or the file table when the write itself succeeds, and a
// silently truncated profile is worse than no profile.
func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return writeHeapTo(f)
}

// writeHeapTo snapshots the heap into f and closes it. The close error
// is load-bearing: the runtime's profile writer swallows write errors
// internally (its gzip stream discards them), so a full disk or a bad
// descriptor is often only reported by close — the old `defer f.Close()`
// turned a truncated profile into a silent success.
func writeHeapTo(f *os.File) (err error) {
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("profiling: %w", cerr)
		}
	}()
	runtime.GC()
	if perr := pprof.WriteHeapProfile(f); perr != nil {
		return fmt.Errorf("profiling: %w", perr)
	}
	return nil
}
