// Package cli is the one harness of the gem command-line tools. It
// declares the flags they share, once, and owns what every run needs
// around its work: obs recording for -trace and -stats, the pprof
// profiles, the persistent result store, SIGINT, and the teardown that
// flushes all of them on every return path. For gemlint and gemgo it
// also writes the diagnostics and computes their exit status.
//
// Every tool takes -trace FILE (a Chrome trace-event JSON file for
// chrome://tracing or Perfetto) and -stats (span and counter statistics
// on stderr). A tool opts into the other shared flags with Flags and
// declares its own on Tool.FS.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/store"
)

// Flags selects the shared flags a tool takes besides -trace and -stats.
type Flags uint8

const (
	// Jobs is -j, the parallelism (default runtime.NumCPU()).
	Jobs Flags = 1 << iota
	// Checks is the flags of the tools that run sat checks: -j,
	// -cpuprofile and -memprofile (pprof profiles), and -cache (off, ro
	// or rw; default rw) with -cache-dir (default $GEM_CACHE_DIR, else
	// the user cache dir), which select the persistent result store.
	Checks
	// Diagnostics is -format=text|json|sarif, its alias -json, and
	// -codes, which prints the GEM code registry.
	Diagnostics
)

// Tool is one command: its flag set, with the shared flags it opted
// into, and their values once parsed.
type Tool struct {
	FS *flag.FlagSet
	// J is -j.
	J int

	name string
	// stderr receives flag errors, usage, store warnings and -stats.
	stderr io.Writer

	trace, cpuprofile, memprofile string
	cacheMode, cacheDir, format   string
	stats, json, codes            bool
}

// New declares the flag set of the command name: -trace, -stats and
// the shared flags that flags selects.
func New(name string, stderr io.Writer, flags Flags) *Tool {
	t := &Tool{FS: flag.NewFlagSet(name, flag.ContinueOnError), name: name, stderr: stderr}
	fs := t.FS
	fs.SetOutput(stderr)
	fs.StringVar(&t.trace, "trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	fs.BoolVar(&t.stats, "stats", false, "print span and counter statistics to stderr on exit")
	if flags&(Jobs|Checks) != 0 {
		fs.IntVar(&t.J, "j", runtime.NumCPU(), "parallelism: checking workers, or packages analyzed at once (1 = sequential)")
	}
	if flags&Checks != 0 {
		fs.StringVar(&t.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&t.memprofile, "memprofile", "", "write a pprof heap profile to this file")
		fs.StringVar(&t.cacheMode, "cache", "rw", "persistent result store: off, ro or rw")
		fs.StringVar(&t.cacheDir, "cache-dir", "", "result store directory; if empty, $GEM_CACHE_DIR, else the user cache dir")
	}
	if flags&Diagnostics != 0 {
		fs.StringVar(&t.format, "format", "", "output format: text, json or sarif; if empty, text")
		fs.BoolVar(&t.json, "json", false, "emit diagnostics as a JSON array (alias for -format=json)")
		fs.BoolVar(&t.codes, "codes", false, "print the shared GEM code registry (code, severity, summary) and exit")
	}
	return t
}

// Run runs body between the shared set-up and teardown. Set-up resolves
// -format, starts obs recording when -trace or -stats
// asks for it, and starts the CPU profile; a flag a tool did not take
// reads as its default. Teardown runs on every return path, in this
// order: stop the CPU profile, write the heap profile, flush the trace
// and stats. A teardown error replaces a nil error from body and never
// masks an earlier one.
func (t *Tool) Run(body func() error) (err error) {
	switch t.format {
	case "":
		t.format = "text"
		if t.json {
			t.format = "json"
		}
	case "text", "json", "sarif":
	default:
		return fmt.Errorf("unknown -format %q (want text, json, or sarif)", t.format)
	}
	if t.trace != "" || t.stats {
		obs.Enable()
	}
	defer keepFirst(&err, func() error { return obs.Flush(t.trace, t.stats, t.stderr) })
	defer keepFirst(&err, func() error { return writeHeap(t.memprofile) })
	stopCPU, err := startCPU(t.cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()
	return body()
}

// keepFirst runs f and stores its error in *err unless *err already
// holds one.
func keepFirst(err *error, f func() error) {
	if ferr := f(); ferr != nil && *err == nil {
		*err = ferr
	}
}

// RunContext is Run for a tool whose work consumes a context: SIGINT
// cancels body's context, and a run whose context was cancelled
// returns Interrupted's error. Only such tools install the handler, so
// Ctrl-C still ends the others at once.
func (t *Tool) RunContext(body func(ctx context.Context) error) error {
	return t.Run(func() error {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		return Interrupted(ctx, body(ctx))
	})
}

// Interrupted returns err, unless ctx was cancelled: then the run was
// interrupted, whatever its work returned, and its output is partial.
func Interrupted(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted (partial results): %w", context.Cause(ctx))
	}
	return err
}

// OpenStore opens the persistent result store that -cache and
// -cache-dir select, through store.OpenFromFlags. cache is st as a
// logic.VerdictCache, and a true nil when there is no store, so no
// check mistakes a typed nil pointer for a cache.
func (t *Tool) OpenStore() (st *store.Store, cache logic.VerdictCache, err error) {
	st, err = store.OpenFromFlags(t.cacheMode, t.cacheDir, t.stderr)
	if st == nil {
		return nil, nil, err
	}
	return st, st, nil
}

// Diagnose runs a tool that reports diagnostics and returns its exit
// status. It parses args; -codes prints the code registry and exits 0;
// no arguments print the usage and exit 2. Otherwise body runs under
// Run and returns the status, normally through Report. A flag error, or
// a set-up or teardown failure, exits 2.
func (t *Tool) Diagnose(args []string, stdout io.Writer, body func() int) int {
	if err := t.FS.Parse(args); err != nil {
		return 2
	}
	if t.codes {
		lint.PrintRegistry(stdout)
		return 0
	}
	if t.FS.NArg() == 0 {
		t.FS.Usage()
		return 2
	}
	status := 0
	if err := t.Run(func() error { status = body(); return nil }); err != nil {
		t.Warn(err)
		return 2
	}
	return status
}

// Report sorts diags and writes them to w in the -format: one line per
// finding, a JSON array ([] when there are none), or a SARIF log under
// the tool's name. It returns the exit status: status raised to 1 by a
// warning, to 2 by an error or by a failed write.
func (t *Tool) Report(w io.Writer, diags []lint.FileDiagnostic, status int) int {
	for _, d := range diags {
		if d.Severity >= lint.SeverityError {
			status = 2
		} else {
			status = max(status, 1)
		}
	}
	lint.SortFileDiagnostics(diags)
	var err error
	switch t.format {
	case "text":
		for _, d := range diags {
			fmt.Fprintf(w, "%s:%s\n", d.File, d.Diagnostic)
		}
	case "json":
		if diags == nil {
			diags = []lint.FileDiagnostic{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(diags)
	case "sarif":
		err = lint.WriteSARIFAs(w, t.name, diags)
	}
	if err != nil {
		t.Warn(err)
		return 2
	}
	return status
}

// Warn prints msg on the tool's stderr, prefixed with its name.
func (t *Tool) Warn(msg any) {
	fmt.Fprintf(t.stderr, "%s: %v\n", t.name, msg)
}
