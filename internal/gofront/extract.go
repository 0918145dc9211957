package gofront

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// This file walks Go function bodies and records the concurrency
// operations GEM models: goroutine spawns, channel make/send/receive/
// close, sync.Mutex and sync.RWMutex lock–unlock pairs, and
// sync.WaitGroup Add/Done/Wait. The walk is purely static and
// deliberately linear: every statement of a body is assumed to execute
// once, in source order — branches are walked as if both arms run,
// loops as if their body runs once (operations inside a loop are marked
// InLoop, which the partner analysis treats as "unbounded many"). Calls
// to functions declared in the same package are inlined one level at a
// time (recursion is cut), with channel/mutex/WaitGroup arguments bound
// to the callee's parameters, so the common "locked helper" and
// "worker(ch)" idioms resolve to the caller's objects.

// OpKind classifies one recorded operation.
type OpKind int

// The operation kinds, in declaration order.
const (
	OpSpawn OpKind = iota
	OpSend
	OpRecv
	OpClose
	OpLock
	OpUnlock
	OpRLock
	OpRUnlock
	OpAdd
	OpDone
	OpWait
	OpRead
	OpWrite
)

func (k OpKind) String() string {
	switch k {
	case OpSpawn:
		return "spawn"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpClose:
		return "close"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpRLock:
		return "rlock"
	case OpRUnlock:
		return "runlock"
	case OpAdd:
		return "add"
	case OpDone:
		return "done"
	case OpWait:
		return "wait"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "unknown"
	}
}

// objKey identifies a synchronization object: the types.Object of the
// root identifier plus a field path for selector chains ("s.mu"). An
// operation on an expression the extractor cannot resolve gets a
// position-unique anonymous key, which never pairs with anything and is
// excluded from the partner diagnostics (conservative: no false GEM013).
type objKey struct {
	obj  types.Object
	path string
}

func (k objKey) known() bool { return k.obj != nil }

// Op is one recorded operation.
type Op struct {
	Kind OpKind
	// G indexes the goroutine the operation runs on.
	G int
	// Key identifies the channel/mutex/WaitGroup operated on (zero for
	// spawns).
	Key objKey
	// Pos is the operation's source position.
	Pos token.Position
	// Add is the constant Add delta for OpAdd; -1 when not constant.
	Add int
	// InLoop marks operations inside a for/range body: statically they
	// may repeat, so counting arguments treat them as unbounded.
	InLoop bool
	// Child is the spawned goroutine index for OpSpawn, -1 otherwise.
	Child int
	// Locks, for OpRead/OpWrite, indexes the lock acquisitions (OpLock or
	// OpRLock operations) the accessing goroutine holds at the access —
	// its lockset. Deferred unlocks release at function end, so an access
	// between `mu.Lock(); defer mu.Unlock()` and the return is covered.
	Locks []int
}

// Goroutine is one extracted goroutine.
type Goroutine struct {
	// Name is the GEM element name: the root function's name for the
	// main goroutine, "<func>.g<n>" for spawned ones.
	Name string
	// SpawnOp indexes the spawn operation that created it; -1 for the
	// root goroutine.
	SpawnOp int
}

// rawModel is the extraction result for one root function, before
// compilation into a GEM spec/computation.
type rawModel struct {
	fnName  string
	fnPos   token.Position
	ops     []Op
	gors    []Goroutine
	chanCap map[objKey]int
}

const maxInlineDepth = 8

type extractor struct {
	pkg   *Package
	funcs map[types.Object]*ast.FuncDecl

	raw      *rawModel
	alias    map[types.Object]objKey
	inlining map[*ast.FuncDecl]bool
	depth    int
	loop     int
	gcount   int
	// held tracks, per goroutine, the stack of lock-acquisition operation
	// indices currently held — the lockset snapshotted onto each
	// read/write access.
	held map[int][]int
}

type frame struct {
	g      int
	defers []*ast.CallExpr
}

// packageFuncs indexes the package's function declarations by their
// types.Object, for inlining and root detection.
func packageFuncs(pkg *Package) map[types.Object]*ast.FuncDecl {
	out := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pkg.info.Defs[fd.Name]; obj != nil {
				out[obj] = fd
			}
		}
	}
	return out
}

// roots returns the package's root functions — those no other function
// in the package references — in source order. Referenced functions are
// analyzed inline at their call/spawn sites, so making them roots too
// would duplicate every diagnostic.
func roots(pkg *Package, funcs map[types.Object]*ast.FuncDecl) []*ast.FuncDecl {
	referenced := make(map[types.Object]bool)
	for _, fd := range funcs {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pkg.info.Uses[id]; obj != nil && funcs[obj] != nil {
					referenced[obj] = true
				}
			}
			return true
		})
	}
	var out []*ast.FuncDecl
	for obj, fd := range funcs {
		if !referenced[obj] {
			out = append(out, fd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// extractFunc runs the walk for one root function.
func extractFunc(pkg *Package, funcs map[types.Object]*ast.FuncDecl, fd *ast.FuncDecl) *rawModel {
	x := &extractor{
		pkg:   pkg,
		funcs: funcs,
		raw: &rawModel{
			fnName:  fd.Name.Name,
			fnPos:   pkg.Fset.Position(fd.Pos()),
			chanCap: make(map[objKey]int),
		},
		alias:    make(map[types.Object]objKey),
		inlining: make(map[*ast.FuncDecl]bool),
		held:     make(map[int][]int),
	}
	x.raw.gors = append(x.raw.gors, Goroutine{Name: fd.Name.Name, SpawnOp: -1})
	x.inlining[fd] = true
	x.walkBody(fd.Body, 0)
	x.raw.filterAccesses()
	return x.raw
}

func (x *extractor) emit(op Op) int {
	op.InLoop = op.InLoop || x.loop > 0
	if op.Kind != OpSpawn {
		op.Child = -1
	}
	idx := len(x.raw.ops)
	switch op.Kind {
	case OpLock, OpRLock:
		if op.Key.known() {
			x.held[op.G] = append(x.held[op.G], idx)
		}
	case OpUnlock, OpRUnlock:
		// Release the most recent same-mode acquisition of the same
		// object: Unlock pairs with Lock, RUnlock with RLock.
		want := OpLock
		if op.Kind == OpRUnlock {
			want = OpRLock
		}
		hs := x.held[op.G]
		for j := len(hs) - 1; j >= 0; j-- {
			a := x.raw.ops[hs[j]]
			if a.Kind == want && a.Key == op.Key {
				x.held[op.G] = append(hs[:j:j], hs[j+1:]...)
				break
			}
		}
	case OpRead, OpWrite:
		op.Locks = append([]int(nil), x.held[op.G]...)
	}
	x.raw.ops = append(x.raw.ops, op)
	return idx
}

func (x *extractor) pos(p token.Pos) token.Position { return x.pkg.Fset.Position(p) }

// walkBody walks one function body as goroutine g, running its deferred
// calls (last-in, first-out) at the end — which is how `defer
// mu.Unlock()` closes a lock region in the extracted model.
func (x *extractor) walkBody(body *ast.BlockStmt, g int) {
	fr := &frame{g: g}
	x.stmts(body.List, fr)
	for i := len(fr.defers) - 1; i >= 0; i-- {
		x.runCall(fr.defers[i], fr)
	}
}

func (x *extractor) stmts(list []ast.Stmt, fr *frame) {
	for _, s := range list {
		x.stmt(s, fr)
	}
}

func (x *extractor) stmt(s ast.Stmt, fr *frame) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		x.stmts(s.List, fr)
	case *ast.ExprStmt:
		x.expr(s.X, fr)
	case *ast.SendStmt:
		x.expr(s.Value, fr)
		x.expr(s.Chan, fr)
		x.emit(Op{Kind: OpSend, G: fr.g, Key: x.keyOf(s.Chan), Pos: x.pos(s.Arrow)})
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			x.expr(r, fr)
		}
		for _, l := range s.Lhs {
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				// Compound assignment (+=, |=, …) reads before writing.
				x.access(l, OpRead, fr)
			}
			x.writeAccess(l, fr)
		}
		x.trackAssign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						x.expr(v, fr)
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					if len(vs.Values) > 0 {
						for _, l := range lhs {
							x.writeAccess(l, fr)
						}
					}
					x.trackAssign(lhs, vs.Values)
				}
			}
		}
	case *ast.GoStmt:
		x.goStmt(s, fr)
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			x.expr(a, fr)
		}
		fr.defers = append(fr.defers, s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			x.stmt(s.Init, fr)
		}
		x.expr(s.Cond, fr)
		x.stmts(s.Body.List, fr)
		if s.Else != nil {
			x.stmt(s.Else, fr)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			x.stmt(s.Init, fr)
		}
		x.expr(s.Cond, fr)
		x.loop++
		x.stmts(s.Body.List, fr)
		if s.Post != nil {
			x.stmt(s.Post, fr)
		}
		x.loop--
	case *ast.RangeStmt:
		x.expr(s.X, fr)
		if x.isChan(s.X) {
			x.emit(Op{Kind: OpRecv, G: fr.g, Key: x.keyOf(s.X), Pos: x.pos(s.For), InLoop: true})
		}
		x.loop++
		x.stmts(s.Body.List, fr)
		x.loop--
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					x.stmt(cc.Comm, fr)
				}
				x.stmts(cc.Body, fr)
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			x.stmt(s.Init, fr)
		}
		x.expr(s.Tag, fr)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				x.stmts(cc.Body, fr)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			x.stmt(s.Init, fr)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				x.stmts(cc.Body, fr)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			x.expr(r, fr)
		}
	case *ast.LabeledStmt:
		x.stmt(s.Stmt, fr)
	case *ast.IncDecStmt:
		// x++ reads then writes x.
		x.expr(s.X, fr)
		x.writeAccess(s.X, fr)
	}
}

// writeAccess records the write an assignment target performs, also
// scanning index subexpressions for the reads they contain (`m[k] = v`
// writes m and reads k).
func (x *extractor) writeAccess(l ast.Expr, fr *frame) {
	if ix, ok := l.(*ast.IndexExpr); ok {
		x.expr(ix.Index, fr)
	}
	x.access(l, OpWrite, fr)
}

// trackAssign registers channel capacities (`ch := make(chan T, n)`) and
// channel/mutex aliases (`c2 := c1`).
func (x *extractor) trackAssign(lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i := range lhs {
		id, ok := lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := x.pkg.info.Defs[id]
		if obj == nil {
			obj = x.pkg.info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if cap, ok := x.makeChanCap(rhs[i]); ok {
			x.raw.chanCap[objKey{obj: obj}] = cap
			continue
		}
		if rid, ok := rhs[i].(*ast.Ident); ok && x.isChan(rid) {
			x.alias[obj] = x.keyOf(rid)
		}
	}
}

// makeChanCap recognizes make(chan T[, n]) and returns the constant
// capacity (0 when omitted or not constant).
func (x *extractor) makeChanCap(e ast.Expr) (int, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return 0, false
	}
	if _, ok := x.pkg.info.Uses[id].(*types.Builtin); !ok {
		return 0, false
	}
	if len(call.Args) == 0 || !x.isChanType(call.Args[0]) {
		return 0, false
	}
	if len(call.Args) >= 2 {
		if tv, ok := x.pkg.info.Types[call.Args[1]]; ok && tv.Value != nil {
			if n, ok := constant.Int64Val(tv.Value); ok && n >= 0 {
				return int(n), true
			}
		}
		return 0, true
	}
	return 0, true
}

func (x *extractor) isChanType(e ast.Expr) bool {
	tv, ok := x.pkg.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

func (x *extractor) isChan(e ast.Expr) bool { return x.isChanType(e) }

// goStmt spawns a new goroutine element and walks its body.
func (x *extractor) goStmt(s *ast.GoStmt, fr *frame) {
	for _, a := range s.Call.Args {
		x.expr(a, fr)
	}
	x.gcount++
	child := len(x.raw.gors)
	x.raw.gors = append(x.raw.gors, Goroutine{
		Name:    fmt.Sprintf("%s.g%d", x.raw.fnName, x.gcount),
		SpawnOp: -1, // fixed up below
	})
	spawn := x.emit(Op{Kind: OpSpawn, G: fr.g, Pos: x.pos(s.Go), Child: child})
	x.raw.gors[child].SpawnOp = spawn
	x.invoke(s.Call, child)
}

// runCall executes a deferred call at frame end.
func (x *extractor) runCall(call *ast.CallExpr, fr *frame) {
	if x.opCall(call, fr) {
		return
	}
	x.invoke(call, fr.g)
}

// invoke resolves a call's target body (function literal, or a function
// declared in this package) and walks it as goroutine g, binding
// channel/mutex/WaitGroup arguments to parameters. Unresolvable targets
// contribute no operations.
func (x *extractor) invoke(call *ast.CallExpr, g int) {
	if x.depth >= maxInlineDepth {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		restore := x.bindParams(lit.Type.Params, call.Args)
		x.depth++
		x.walkBody(lit.Body, g)
		x.depth--
		restore()
		return
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = x.pkg.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = x.pkg.info.Uses[fun.Sel]
	}
	fd := x.funcs[obj]
	if fd == nil || x.inlining[fd] {
		return
	}
	restore := x.bindParams(fd.Type.Params, call.Args)
	x.inlining[fd] = true
	x.depth++
	x.walkBody(fd.Body, g)
	x.depth--
	x.inlining[fd] = false
	restore()
}

// bindParams aliases callee parameters to the caller's argument keys so
// operations inside the callee resolve to the caller's objects. Returns
// a function undoing the bindings (inline sites are a stack).
func (x *extractor) bindParams(params *ast.FieldList, args []ast.Expr) func() {
	if params == nil {
		return func() {}
	}
	type saved struct {
		obj types.Object
		key objKey
		had bool
	}
	var undo []saved
	i := 0
	for _, field := range params.List {
		for _, name := range field.Names {
			if i >= len(args) {
				break
			}
			obj := x.pkg.info.Defs[name]
			if obj != nil && x.aliasableArg(args[i]) {
				key := x.keyOf(args[i])
				if key.known() {
					old, had := x.alias[obj]
					undo = append(undo, saved{obj: obj, key: old, had: had})
					x.alias[obj] = key
				}
			}
			i++
		}
	}
	return func() {
		for j := len(undo) - 1; j >= 0; j-- {
			s := undo[j]
			if s.had {
				x.alias[s.obj] = s.key
			} else {
				delete(x.alias, s.obj)
			}
		}
	}
}

// aliasableArg reports whether passing an argument shares the caller's
// object with the callee: channels, sync objects, and pointers do; a
// plain value parameter is a copy, so aliasing it would fabricate
// accesses to the caller's variable.
func (x *extractor) aliasableArg(e ast.Expr) bool {
	if _, isSync := x.syncType(e); isSync {
		return true
	}
	tv, ok := x.pkg.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Chan, *types.Pointer, *types.Map, *types.Slice:
		return true
	}
	return false
}

// expr scans an expression for operations: channel receives, close
// calls, sync method calls, and calls to package functions (inlined).
// Function literals are not entered — they only run when invoked via
// go/defer/call, which the statement walker handles.
func (x *extractor) expr(e ast.Expr, fr *frame) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			x.access(n, OpRead, fr)
		case *ast.SelectorExpr:
			if x.access(n, OpRead, fr) {
				// The whole selector path is one access; don't also
				// record its base.
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				x.emit(Op{Kind: OpRecv, G: fr.g, Key: x.keyOf(n.X), Pos: x.pos(n.OpPos)})
			}
		case *ast.CallExpr:
			if x.opCall(n, fr) {
				return true // still scan args for nested receives
			}
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately invoked literal: walk it here, skip the
				// pruned FuncLit visit.
				restore := x.bindParams(lit.Type.Params, n.Args)
				x.depth++
				if x.depth <= maxInlineDepth {
					x.walkBody(lit.Body, fr.g)
				}
				x.depth--
				restore()
				return true
			}
			x.invoke(n, fr.g)
		}
		return true
	})
}

// opCall recognizes close(ch) and the sync.Mutex/RWMutex/WaitGroup
// method calls, emitting the corresponding operation. Reports whether
// the call was consumed.
func (x *extractor) opCall(call *ast.CallExpr, fr *frame) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if _, builtin := x.pkg.info.Uses[id].(*types.Builtin); builtin {
			x.emit(Op{Kind: OpClose, G: fr.g, Key: x.keyOf(call.Args[0]), Pos: x.pos(call.Lparen)})
			return true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv, ok := x.syncType(sel.X)
	if !ok {
		return false
	}
	kind, ok := syncMethodKind(recv, sel.Sel.Name)
	if !ok {
		return false
	}
	op := Op{Kind: kind, G: fr.g, Key: x.keyOf(sel.X), Pos: x.pos(sel.Sel.Pos()), Add: -1}
	if kind == OpAdd && len(call.Args) == 1 {
		if tv, ok := x.pkg.info.Types[call.Args[0]]; ok && tv.Value != nil {
			if n, ok := constant.Int64Val(tv.Value); ok {
				op.Add = int(n)
			}
		}
	}
	x.emit(op)
	return true
}

// syncType reports the sync type name ("Mutex", "RWMutex", "WaitGroup")
// of an expression, dereferencing one pointer level.
func (x *extractor) syncType(e ast.Expr) (string, bool) {
	tv, ok := x.pkg.info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "WaitGroup":
		return obj.Name(), true
	}
	return "", false
}

func syncMethodKind(recv, method string) (OpKind, bool) {
	switch recv {
	case "Mutex":
		switch method {
		case "Lock":
			return OpLock, true
		case "Unlock":
			return OpUnlock, true
		}
	case "RWMutex":
		switch method {
		case "Lock":
			return OpLock, true
		case "Unlock":
			return OpUnlock, true
		case "RLock":
			return OpRLock, true
		case "RUnlock":
			return OpRUnlock, true
		}
	case "WaitGroup":
		switch method {
		case "Add":
			return OpAdd, true
		case "Done":
			return OpDone, true
		case "Wait":
			return OpWait, true
		}
	}
	return 0, false
}

// keyOf resolves the identity of a channel/mutex/WaitGroup expression:
// the root identifier's object (through parameter bindings and channel
// aliases) plus a selector path. Unresolvable expressions get a
// position-unique anonymous key.
func (x *extractor) keyOf(e ast.Expr) objKey {
	switch e := e.(type) {
	case *ast.Ident:
		obj := x.pkg.info.Uses[e]
		if obj == nil {
			obj = x.pkg.info.Defs[e]
		}
		if obj == nil {
			break
		}
		if k, ok := x.alias[obj]; ok {
			return k
		}
		return objKey{obj: obj}
	case *ast.SelectorExpr:
		base := x.keyOf(e.X)
		if base.known() {
			return objKey{obj: base.obj, path: base.path + "." + e.Sel.Name}
		}
	case *ast.ParenExpr:
		return x.keyOf(e.X)
	case *ast.StarExpr:
		return x.keyOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return x.keyOf(e.X)
		}
	}
	return objKey{path: fmt.Sprintf("anon@%v", x.pos(e.Pos()))}
}

// access records a shared-variable access candidate: a read or write of
// a plain variable (or a field path rooted at one), excluding
// synchronization objects, channels, and functions — those are modeled
// by their own operations. Reports whether the expression was consumed.
// The lockset snapshot happens in emit; whether the variable is actually
// shared is decided by filterAccesses once the whole walk is done.
func (x *extractor) access(e ast.Expr, kind OpKind, fr *frame) bool {
	key := x.accessKeyOf(e)
	if !key.known() {
		return false
	}
	v, ok := key.obj.(*types.Var)
	if !ok || v.IsField() || v.Name() == "_" {
		return false
	}
	if x.skipAccessType(e) {
		return false
	}
	x.emit(Op{Kind: kind, G: fr.g, Key: key, Pos: x.pos(e.Pos()), Add: -1})
	return true
}

// accessKeyOf resolves the identity of an accessed variable: element
// accesses (`m[k]`, `xs[i]`) collapse to their base object, then keyOf's
// selector-path resolution applies.
func (x *extractor) accessKeyOf(e ast.Expr) objKey {
	switch e := e.(type) {
	case *ast.IndexExpr:
		return x.accessKeyOf(e.X)
	case *ast.ParenExpr:
		return x.accessKeyOf(e.X)
	}
	return x.keyOf(e)
}

// skipAccessType reports whether an expression's type puts it outside
// the data-access model: channels and sync objects have their own
// operation kinds, and function/method values are not data.
func (x *extractor) skipAccessType(e ast.Expr) bool {
	tv, ok := x.pkg.info.Types[e]
	if !ok || tv.Type == nil {
		return true
	}
	switch tv.Type.Underlying().(type) {
	case *types.Chan, *types.Signature:
		return true
	}
	if _, isSync := x.syncType(e); isSync {
		return true
	}
	return false
}

// isPackageLevel reports whether an object is a package-level variable.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// filterAccesses drops read/write operations on variables that are not
// shared: only package-level variables and locals touched by more than
// one goroutine (captured across a go boundary) stay in the model.
// Everything the walk recorded on purely goroutine-local state is
// removed, and the operation indices the model refers to (spawn ops,
// locksets) are remapped.
func (raw *rawModel) filterAccesses() {
	firstG := make(map[objKey]int)
	shared := make(map[objKey]bool)
	for _, op := range raw.ops {
		if op.Kind != OpRead && op.Kind != OpWrite {
			continue
		}
		if g, ok := firstG[op.Key]; !ok {
			firstG[op.Key] = op.G
		} else if g != op.G {
			shared[op.Key] = true
		}
	}
	remap := make([]int, len(raw.ops))
	kept := raw.ops[:0]
	for i, op := range raw.ops {
		if (op.Kind == OpRead || op.Kind == OpWrite) &&
			!shared[op.Key] && !isPackageLevel(op.Key.obj) {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, op)
	}
	raw.ops = kept
	for i := range raw.ops {
		ls := raw.ops[i].Locks
		for j, l := range ls {
			ls[j] = remap[l] // lock ops are never dropped
		}
	}
	for i := range raw.gors {
		if s := raw.gors[i].SpawnOp; s >= 0 {
			raw.gors[i].SpawnOp = remap[s] // spawns are never dropped
		}
	}
}

// displayName renders a key for messages and class names.
func (k objKey) displayName() string {
	if k.obj != nil {
		return k.obj.Name() + k.path
	}
	return "?"
}
