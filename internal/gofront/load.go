package gofront

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gem/internal/obs"
)

// Package is one loaded Go package: the parsed files plus the go/types
// resolution the extractor consults. Type errors are collected, not
// fatal — extraction degrades gracefully on partial type information (a
// call whose receiver type is unknown simply produces no event).
type Package struct {
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	// TypeErrs are the type-checker's complaints, in reporting order,
	// among them every import that could not be read. They do not stop
	// the analysis, but what it extracts may lack events (a failed
	// "sync" import hides every lock), so gemgo reports a package with
	// type errors as a load failure.
	TypeErrs []error

	info *types.Info
}

// cachingImporter reads imports through the gc importer, from export
// data the go command names (lookupExport). The gc importer keeps every
// package it has read; the wrapper adds a lock, so that the -j fan-out's
// concurrent package loads share one importer, and a memo of failed
// lookups, so that a failed import runs the go command once per process
// rather than once per package that imports it.
type cachingImporter struct {
	mu   sync.Mutex
	gc   types.Importer
	errs map[string]error
}

var sharedImporter = &cachingImporter{
	gc:   importer.ForCompiler(token.NewFileSet(), "gc", lookupExport),
	errs: make(map[string]error),
}

func (ci *cachingImporter) Import(path string) (*types.Package, error) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if err, ok := ci.errs[path]; ok {
		return nil, err
	}
	p, err := ci.gc.Import(path)
	if err != nil {
		ci.errs[path] = err
	}
	return p, err
}

// lookupExport opens the export data of the package at import path. It
// runs the go command of GOROOT from the working directory, as go/build
// does for every import outside GOROOT, which compiles the package into
// the build cache on first use and names the file there. The path comes
// from analyzed source, so one the go command would take for a flag or a
// pattern is refused before it runs. Like go/build, it runs no go
// command when GOROOT is unknown (a -trimpath binary with GOROOT unset),
// rather than whatever bin/go the working directory holds.
func lookupExport(path string) (io.ReadCloser, error) {
	if err := checkImportPath(path); err != nil {
		return nil, err
	}
	if build.Default.GOROOT == "" {
		return nil, errors.New("gofront: GOROOT is unknown, so there is no go command to read export data from; set GOROOT")
	}
	goCmd := filepath.Join(build.Default.GOROOT, "bin", "go")
	out, err := exec.Command(goCmd, "list", "-export", "-f", "{{.Export}}", "--", path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && len(ee.Stderr) > 0 {
			err = errors.New(strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("go list -export %s: %v", path, err)
	}
	file, err := exportFile(out)
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v", path, err)
	}
	return os.Open(file)
}

// checkImportPath refuses an import path that the go command would not
// read as exactly one package: an empty path, a flag, a relative or
// absolute path, a pattern with "...", or a name `go help packages`
// reserves for a pattern ("all" lists the whole module, "std" the
// standard library, and -export compiles everything it lists).
func checkImportPath(path string) error {
	reserved := path == "main" || path == "all" || path == "std" || path == "cmd" || path == "tool"
	if path == "" || reserved || strings.ContainsAny(path[:1], "-./") || strings.Contains(path, "...") {
		return fmt.Errorf("gofront: %q is not a package import path", path)
	}
	return nil
}

// exportFile returns the one export data file a go list -export reply
// names.
func exportFile(out []byte) (string, error) {
	files := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(files) != 1 || files[0] == "" {
		return "", fmt.Errorf("want one export data file, got %q", out)
	}
	return files[0], nil
}

// ExpandPatterns resolves gemgo's package patterns to package
// directories: a plain path names one directory, a path ending in /...
// walks the tree rooted there collecting every directory that contains
// .go files. Like the go tool, the walk skips testdata, vendor, and
// dot/underscore directories — but an explicit plain path is taken
// verbatim, which is how the fixture corpus under testdata/ is analyzed.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, walk := strings.CutSuffix(pat, "/...")
		if root == "" {
			root = "."
		}
		fi, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("gofront: %s is not a directory", root)
		}
		if !walk {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && goSource(e.Name()) {
			return true
		}
	}
	return false
}

func goSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// LoadDir parses and type-checks the non-test .go files of one
// directory, reading its imports through sharedImporter. Parse errors
// are fatal (the extractor needs syntax); type errors, failed imports
// among them, are collected on the returned package.
func LoadDir(dir string) (*Package, error) {
	_, sp := obs.StartSpan(nil, "gofront.load")
	defer sp.End()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && goSource(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("gofront: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typeCheck(dir, fset, files), nil
}

// LoadSource loads a single in-memory file as its own package — the
// entry point the fuzzer and tests use.
func LoadSource(filename, src string) (*Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return typeCheck(filepath.Dir(filename), fset, []*ast.File{f}), nil
}

func typeCheck(dir string, fset *token.FileSet, files []*ast.File) *Package {
	pkg := &Package{
		Dir:   dir,
		Fset:  fset,
		Files: files,
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	if len(files) > 0 {
		pkg.Name = files[0].Name.Name
	}
	conf := types.Config{
		Importer: sharedImporter,
		Error:    func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	// Check fills the Info maps as far as it gets even when it returns an
	// error; the Error handler above keeps it going past the first one.
	_, _ = conf.Check(pkg.Name, fset, files, pkg.info)
	return pkg
}
