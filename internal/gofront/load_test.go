package gofront

import (
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// TestImportPathRefused: an import path the go command would take for a
// flag or a pattern fails as an import error before the go command
// runs, and so does a reply that names anything but one file.
func TestImportPathRefused(t *testing.T) {
	for _, path := range []string{
		"", "-toolexec=x", "./sibling", "../up", ".hidden", "/abs/path",
		"gem/...", "net/.../x", "main", "all", "std", "cmd", "tool",
	} {
		_, err := lookupExport(path)
		if err == nil || !strings.Contains(err.Error(), "is not a package import path") {
			t.Errorf("import %q: err = %v, want it refused", path, err)
		}
	}
	for _, path := range []string{"sync", "gem/internal/core", "example.com/x/y", "maintenance", "std2"} {
		if err := checkImportPath(path); err != nil {
			t.Errorf("import %q refused: %v", path, err)
		}
	}
	for _, tc := range []struct {
		reply string
		want  string // "" for an error
	}{
		{"/cache/ab/ab12-d\n", "/cache/ab/ab12-d"},
		{"", ""},
		{"\n", ""},
		{"/cache/a-d\n/cache/b-d\n", ""},
	} {
		got, err := exportFile([]byte(tc.reply))
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("reply %q: got %q, %v; want %q", tc.reply, got, err, tc.want)
		}
	}
}

// TestImporterSharedAcrossGoroutines: the -j workers import through one
// importer at once, and every worker gets the same package for a path,
// or the same memoized error.
func TestImporterSharedAcrossGoroutines(t *testing.T) {
	ci := &cachingImporter{
		gc:   importer.ForCompiler(token.NewFileSet(), "gc", lookupExport),
		errs: make(map[string]error),
	}
	paths := []string{"sync", "context", "all"}
	pkgs := make([][]*types.Package, 4)
	errs := make([][]error, 4)
	var wg sync.WaitGroup
	for w := range pkgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range paths {
				pkg, err := ci.Import(p)
				pkgs[w] = append(pkgs[w], pkg)
				errs[w] = append(errs[w], err)
			}
		}()
	}
	wg.Wait()
	for w := range pkgs {
		for i, p := range paths {
			if pkgs[w][i] != pkgs[0][i] || errs[w][i] != errs[0][i] || (errs[w][i] == nil) != (p != "all") {
				t.Errorf("worker %d, import %q: %v, %v; worker 0: %v, %v", w, p, pkgs[w][i], errs[w][i], pkgs[0][i], errs[0][i])
			}
		}
	}
}

// TestNoGOROOTRunsNoGoCommand: with GOROOT unknown, an import fails
// instead of running a bin/go relative to the working directory.
func TestNoGOROOTRunsNoGoCommand(t *testing.T) {
	defer func(goroot string) { build.Default.GOROOT = goroot }(build.Default.GOROOT)
	build.Default.GOROOT = ""
	if _, err := lookupExport("sync"); err == nil || !strings.Contains(err.Error(), "GOROOT is unknown") {
		t.Errorf("err = %v, want GOROOT is unknown", err)
	}
}

// TestImportsBeyondSync: imports other than sync, of the standard
// library and of this module, type-check without error.
func TestImportsBeyondSync(t *testing.T) {
	res, err := AnalyzeSource("imports.go", `package main

import (
	"context"
	"time"

	"gem/internal/core"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ids := make(chan core.EventID)
	go func() {
		ids <- core.EventID(1)
	}()
	select {
	case <-ids:
	case <-ctx.Done():
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pkg.TypeErrs) > 0 {
		t.Fatalf("type errors: %v", res.Pkg.TypeErrs)
	}
	if len(res.Models) != 1 {
		t.Errorf("extracted %d models, want 1", len(res.Models))
	}
}
