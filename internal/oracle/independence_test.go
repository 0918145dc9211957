package oracle

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// nodeTypes are the logic declarations the oracle may name: the formula
// interface, the 34 node types and the comparison operators.
var nodeTypes = map[string]bool{
	"Formula": true, "CmpOp": true,
	"OpEq": true, "OpNe": true, "OpLt": true, "OpLe": true, "OpGt": true, "OpGe": true,
	"TrueF": true, "FalseF": true, "Occurred": true, "New": true, "Potential": true, "AtControl": true,
	"AtElement": true, "InClass": true, "Enables": true, "ElemOrdered": true, "Precedes": true,
	"ConcurrentWith": true, "SameEvent": true, "ParamCmp": true, "ParamConst": true,
	"OnThread": true, "ThreadsDistinct": true, "CountDiff": true, "FIFOValues": true,
	"Not": true, "And": true, "Or": true, "Implies": true, "Iff": true, "Box": true, "Diamond": true,
	"ForAll": true, "Exists": true, "ExistsUnique": true, "AtMostOne": true,
	"ForAllIn": true, "ExistsUniqueIn": true, "ForAllThread": true, "ExistsThread": true,
}

// coreNames are the core declarations the oracle may name, and
// coreMethods the only core methods it may call: the raw accessors of a
// computation, of one of its events and of an event's parameter list.
// Nothing derived (reach, preds, domains, concurrency) is among them.
var (
	coreNames = map[string]bool{
		"Computation": true, "EventID": true, "ClassRef": true, "Params": true, "Value": true,
		"KindInt": true, "KindString": true, "KindBool": true,
	}
	coreMethods = map[string]bool{
		"NumEvents": true, "Event": true, "Enabled": true,
		"Element": true, "Class": true, "Seq": true, "Params": true, "Threads": true,
		"Len": true, "At": true,
	}
)

// exportedMethods returns the names of the exported methods declared in
// the non-test files of the package in dir.
func exportedMethods(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, f := range parseDir(t, dir) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
				out[fd.Name.Name] = true
			}
		}
	}
	return out
}

func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestIndependence keeps the oracle apart from the checker it checks: its
// non-test files import only core, logic and the standard library; they
// name only logic's node types and comparison operators and a handful of
// core types; and they call no method of logic (Eval among them) and no
// core method but the raw accessors. Whatever the production checker
// derives from a computation — its temporal order, histories, sequences,
// class domains — the oracle derives again.
func TestIndependence(t *testing.T) {
	forbidden := exportedMethods(t, "../logic")
	for m := range exportedMethods(t, "../core") {
		if !coreMethods[m] {
			forbidden[m] = true
		}
	}
	files := parseDir(t, ".")
	if len(files) == 0 {
		t.Fatal("no oracle source files")
	}
	for _, f := range files {
		name := f.Name.Name
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			std := first != "gem" && !strings.Contains(first, ".")
			if !std && path != "gem/internal/core" && path != "gem/internal/logic" {
				t.Errorf("%s imports %s; only core, logic and the standard library are allowed", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkg, ok := n.X.(*ast.Ident)
				switch {
				case ok && pkg.Name == "logic" && !nodeTypes[n.Sel.Name]:
					t.Errorf("oracle names logic.%s; only node types and comparison operators are allowed", n.Sel.Name)
				case ok && pkg.Name == "core" && !coreNames[n.Sel.Name]:
					t.Errorf("oracle names core.%s", n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && forbidden[sel.Sel.Name] {
					t.Errorf("oracle calls .%s, a method of logic or core it must not use", sel.Sel.Name)
				}
			}
			return true
		})
	}
}
