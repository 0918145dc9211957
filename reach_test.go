package gem

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
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
	"testing"
)

// testOnlyAllowlist names the non-test declarations under cmd/ and
// internal/ that no main package reaches but that stay, each with its
// reason. A package directory names every declaration of the package.
// Entries count as roots of the reachability pass, and an entry that a
// main package reaches without them is stale.
var testOnlyAllowlist = map[string]string{
	"internal/monitor.Spec": "reference spec of the monitor primitive (E5)",
	"internal/ada.Spec":     "reference spec of the ADA rendezvous primitive (E5)",
	"internal/ada.Explore":  "explores ADA programs for the E5 reference-spec checks",

	"internal/order.DAG.ReachesDFS":      "the DFS arm of BenchmarkAblationClosureVsDFS",
	"internal/core.Computation.Elements": "used by BenchmarkAblationClosureVsDFS",

	"internal/logic.HoldsEvery": "runs BenchmarkE4MonitorRW, which scripts/bench.sh gates",

	"internal/problems/rw.BuildComputation":         "fixture of the root E3 benchmark and of tests in several packages",
	"internal/problems/rw.Transaction":              "fixture of the root E3 benchmark and of tests in several packages",
	"internal/problems/boundedbuf.BuildComputation": "fixture of the root E6 benchmark and of tests in several packages",

	"internal/gofront.LoadSource":    "entry point of the fuzz targets and of tests in other packages",
	"internal/gofront.AnalyzeSource": "entry point of the fuzz targets and of tests in other packages",

	"internal/logic.Env.Bindings": "renders the bindings of a witness (ROADMAP item 7)",

	"internal/cli/clitest":         "test helper package of the CLI tests",
	"internal/explore/exploretest": "test helper package of the explorer tests",
}

// TestNoTestOnlyCode keeps test-only code out of the production packages.
// It type-checks every non-test package of this module and of bench/,
// marks what the main packages reach from main, the init functions and
// the initialisers of blank package-level variables, and fails on each
// package-level declaration or method under cmd/ or internal/ left
// unmarked. A reached declaration reaches everything it names, and a
// reached named type reaches those of its methods whose names match a
// method of some interface, since a call through an interface names no
// concrete method.
func TestNoTestOnlyCode(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to list the packages with")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	p := loadProgram(t, root, "bench")
	production, reached := p.reach(nil), p.reach(testOnlyAllowlist)

	named := map[string]bool{}
	var failures []string
	for _, d := range p.decls {
		named[d.pkg] = true
		if _, ok := testOnlyAllowlist[d.key]; ok {
			named[d.key] = true
			if production[d] {
				failures = append(failures, fmt.Sprintf("allowlist entry %s is reached by a main package; drop it", d.key))
			}
		}
		if reached[d] || !strings.HasPrefix(d.pkg, "cmd/") && !strings.HasPrefix(d.pkg, "internal/") {
			continue
		}
		pos := p.fset.Position(d.obj.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		failures = append(failures, fmt.Sprintf("%s:%d: %s is reached by no main package", file, pos.Line, d.key))
	}
	for key := range testOnlyAllowlist {
		if !named[key] {
			failures = append(failures, fmt.Sprintf("allowlist entry %s names no declaration", key))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
	if len(failures) > 0 {
		t.Log("delete test-only declarations, or move them into a _test.go file of their package")
	}
}

// declaration is a package-level object or method of a package
// type-checked from source; a blank variable has no object.
type declaration struct {
	obj  types.Object
	node ast.Node // the FuncDecl, TypeSpec or ValueSpec declaring obj
	info *types.Info
	pkg  string // the package directory, relative to the repository root
	key  string // pkg.Name or pkg.Type.Method
	root bool   // main.main or an init function of a linked package
}

type program struct {
	fset  *token.FileSet
	decls map[types.Object]*declaration
	blank []*declaration // blank variables of packages linked into a main
	// methodNames holds the method names of every interface the packages
	// declare or import.
	methodNames map[string]bool
}

// listedPackage is the part of `go list -json` output the pass reads.
type listedPackage struct {
	Dir, ImportPath, Name, Export string
	GoFiles, Deps                 []string
	Standard                      bool
}

func goList(t *testing.T, dir, pattern string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", pattern)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s in %s: %v", pattern, dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, lp)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadProgram type-checks the non-test packages of the module at root and
// of the modules in the nested directories, one copy of each package.
// Standard-library imports come from the export data `go list -export`
// names.
func loadProgram(t *testing.T, root string, nested ...string) *program {
	t.Helper()
	listed := goList(t, root, "./...")
	for _, dir := range nested {
		listed = append(listed, goList(t, filepath.Join(root, dir), ".")...)
	}
	p := &program{
		fset:        token.NewFileSet(),
		decls:       map[types.Object]*declaration{},
		methodNames: map[string]bool{"Error": true},
	}
	exports := map[string]string{}
	gc := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	var std []*types.Package
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		pkg, err := gc.Import(path)
		if err == nil {
			std = append(std, pkg)
		}
		return pkg, err
	})

	// go list prints dependencies before their dependents.
	type source struct {
		path, dir string
		isMain    bool
		files     []*ast.File
		info      *types.Info
	}
	var sources []source
	linked := map[string]bool{}
	for _, lp := range listed {
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if checked[lp.ImportPath] != nil || len(lp.GoFiles) == 0 {
			continue
		}
		s := source{path: lp.ImportPath, isMain: lp.Name == "main", info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			s.files = append(s.files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, p.fset, s.files, s.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		rel, err := filepath.Rel(root, lp.Dir)
		if err != nil {
			t.Fatal(err)
		}
		s.dir = filepath.ToSlash(rel)
		sources = append(sources, s)
		if s.isMain {
			linked[lp.ImportPath] = true
			for _, dep := range lp.Deps {
				linked[dep] = true
			}
		}
	}
	for _, s := range sources {
		p.collect(s.dir, s.isMain, linked[s.path], s.files, s.info)
	}
	for seen := map[*types.Package]bool{}; len(std) > 0; {
		pkg := std[len(std)-1]
		std = std[:len(std)-1]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				p.addInterface(tn.Type())
			}
		}
		std = append(std, pkg.Imports()...)
	}
	return p
}

func (p *program) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			p.methodNames[it.Method(i).Name()] = true
		}
	}
}

// collect records one package's declarations and interface method names.
func (p *program) collect(dir string, isMain, linked bool, files []*ast.File, info *types.Info) {
	add := func(obj types.Object, node ast.Node, name string, root bool) {
		p.decls[obj] = &declaration{obj: obj, node: node, info: info, pkg: dir, key: dir + "." + name, root: root && linked}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				p.addInterface(info.Types[it].Type)
			}
			return true
		})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					add(obj, d, rt.(*types.Named).Obj().Name()+"."+obj.Name(), false)
					continue
				}
				add(obj, d, obj.Name(), obj.Name() == "init" || obj.Name() == "main" && isMain)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[s.Name], s, s.Name.Name, false)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.Name != "_" {
								add(info.Defs[name], s, name.Name, false)
							} else if linked {
								p.blank = append(p.blank, &declaration{node: s, info: info, pkg: dir})
							}
						}
					}
				}
			}
		}
	}
}

// reach returns the declarations reachable from the roots and from the
// declarations and packages the allowlist names.
func (p *program) reach(allow map[string]string) map[*declaration]bool {
	seen := map[*declaration]bool{}
	var queue []*declaration
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d := p.decls[obj]; d != nil && !seen[d] {
			seen[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range p.decls {
		_, byKey := allow[d.key]
		_, byPkg := allow[d.pkg]
		if d.root || byKey || byPkg {
			mark(d.obj)
		}
	}
	visit := func(d *declaration) {
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	for _, d := range p.blank {
		visit(d)
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visit(d)
		named, ok := d.obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if named.Obj() != d.obj {
			mark(named.Obj()) // a constant or variable reaches its type
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); p.methodNames[m.Name()] {
				mark(m)
			}
		}
	}
	return seen
}
