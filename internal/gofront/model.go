package gofront

import (
	"fmt"
	"slices"

	"gem/internal/core"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/spec"
)

// This file compiles a rawModel — the operation list one root function
// produced — into a GEM model: goroutines become elements, operations
// become events (program order at one goroutine is the element order),
// and the pairings the matching analysis establishes (send↔receive,
// lock↔unlock, Done↔Wait, spawn↔first child operation) become enable
// edges. Restrictions describing each pairing are emitted only when the
// matching is complete and every edge survived, so the extracted
// computation is always legal with respect to its extracted spec — a
// defective program shows up through the GEM013–GEM016 diagnostics, not
// as a legality failure.

// Model is one root function compiled to GEM.
type Model struct {
	// Name is "<package>.<function>".
	Name string
	// Func is the root function's name.
	Func string
	// File is the file declaring the root function.
	File string

	Spec *spec.Spec
	Comp *core.Computation

	Ops  []Op
	Gors []Goroutine
	// EventOf maps each operation index to its event.
	EventOf []core.EventID
	// Enables are the enable edges, in the deterministic order they were
	// accepted.
	Enables [][2]core.EventID
	// Dropped are candidate enable edges skipped because they would have
	// made the temporal order cyclic — exactly the pairings a circular
	// wait (GEM015) is made of.
	Dropped [][2]core.EventID

	Diags []lint.FileDiagnostic

	chans   []*chanInfo
	mutexes []*mutexInfo
	wgs     []*wgInfo
	names   map[objKey]string
}

// chanInfo aggregates one channel's operations (indices into Ops).
type chanInfo struct {
	key    objKey
	cap    int
	sends  []int
	recvs  []int
	closes []int
	// pairs are matched (send, recv) operation pairs; closePairs matched
	// (close, recv).
	pairs      [][2]int
	closePairs [][2]int
	edgesOK    bool
	hasLoopOp  bool
}

type lockPair struct{ lock, unlock int }

// doubleLock records a Lock executed while the same goroutine already
// holds the mutex: the inner lock waits for an unlock that program order
// puts after it.
type doubleLock struct {
	lock       int
	heldSince  int // the outer lock operation
	releasedBy int // the unlock matching heldSince, -1 if it has none
}

// mutexInfo aggregates one mutex's lock structure: write pairs
// (Lock/Unlock) and, for sync.RWMutex, reader pairs (RLock/RUnlock).
type mutexInfo struct {
	key               objKey
	pairs             []lockPair
	rpairs            []lockPair
	unmatchedLocks    []int
	unmatchedUnlocks  []int
	unmatchedRLocks   []int
	unmatchedRUnlocks []int
	doubles           []doubleLock
	edgesOK           bool
}

// wgInfo aggregates one WaitGroup's operations.
type wgInfo struct {
	key      objKey
	adds     []int
	dones    []int
	waits    []int
	addTotal int // summed constant deltas; -1 when unknowable
	edgesOK  bool
}

// buildModel compiles one extraction result. It only errors on an
// internal invariant failure (the cycle-avoiding edge construction makes
// core.Builder.Build succeed by design).
func buildModel(pkg *Package, raw *rawModel) (*Model, error) {
	m := &Model{
		Name:    pkg.Name + "." + raw.fnName,
		Func:    raw.fnName,
		File:    raw.fnPos.Filename,
		Ops:     raw.ops,
		Gors:    raw.gors,
		EventOf: make([]core.EventID, len(raw.ops)),
	}
	m.assignNames()
	m.collectChans(raw)
	m.collectMutexes()
	m.collectWGs()

	m.buildSpecSkeleton(pkg.Name)

	b := core.NewBuilder()
	for i, op := range m.Ops {
		m.EventOf[i] = b.Event(m.Gors[op.G].Name, m.classOf(op), core.Params{})
	}
	m.addEnables(b)
	comp, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("gofront: internal error building %s: %v", m.Name, err)
	}
	m.Comp = comp
	m.addRestrictions()
	m.diagnose()
	return m, nil
}

// assignNames gives every known synchronization object a deterministic,
// collision-free class-name suffix, in first-operation order.
func (m *Model) assignNames() {
	m.names = make(map[objKey]string)
	taken := make(map[string]bool)
	for _, op := range m.Ops {
		if op.Kind == OpSpawn || !op.Key.known() {
			continue
		}
		if _, ok := m.names[op.Key]; ok {
			continue
		}
		base := sanitizeName(op.Key.displayName())
		name := base
		for n := 2; taken[name]; n++ {
			name = fmt.Sprintf("%s_%d", base, n)
		}
		taken[name] = true
		m.names[op.Key] = name
	}
}

func sanitizeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if len(out) == 0 {
				out = append(out, 'o')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "obj"
	}
	return string(out)
}

// classOf renders the event class of an operation: "spawn" for spawns,
// "<kind>_<object>" otherwise ("send_ch", "lock_mu", …). Operations on
// unresolvable objects get a positional suffix so they stay distinct.
func (m *Model) classOf(op Op) string {
	if op.Kind == OpSpawn {
		return "spawn"
	}
	name, ok := m.names[op.Key]
	if !ok {
		name = sanitizeName(op.Key.path)
	}
	return op.Kind.String() + "_" + name
}

// objName renders an object for messages ("ch", "s.mu").
func (m *Model) objName(key objKey) string {
	if key.known() {
		return key.displayName()
	}
	return "?"
}

// collectChans groups channel operations by object (known keys only) in
// first-seen order and matches sends to receives index-for-index, then
// leftover receives to a close. The index pairing is exact for the
// straight-line programs the extractor models; loop-carried operations
// poison the counting-based restrictions but still pair for the wait
// analysis.
func (m *Model) collectChans(raw *rawModel) {
	byKey := make(map[objKey]*chanInfo)
	for i, op := range m.Ops {
		var list *[]int
		switch op.Kind {
		case OpSend, OpRecv, OpClose:
		default:
			continue
		}
		if !op.Key.known() {
			continue
		}
		ci := byKey[op.Key]
		if ci == nil {
			ci = &chanInfo{key: op.Key, cap: raw.chanCap[op.Key]}
			byKey[op.Key] = ci
			m.chans = append(m.chans, ci)
		}
		switch op.Kind {
		case OpSend:
			list = &ci.sends
		case OpRecv:
			list = &ci.recvs
		case OpClose:
			list = &ci.closes
		}
		*list = append(*list, i)
		ci.hasLoopOp = ci.hasLoopOp || op.InLoop
	}
	for _, ci := range m.chans {
		n := len(ci.sends)
		if len(ci.recvs) < n {
			n = len(ci.recvs)
		}
		for i := 0; i < n; i++ {
			ci.pairs = append(ci.pairs, [2]int{ci.sends[i], ci.recvs[i]})
		}
		if len(ci.closes) > 0 {
			for _, r := range ci.recvs[n:] {
				ci.closePairs = append(ci.closePairs, [2]int{ci.closes[0], r})
			}
		}
	}
}

// collectMutexes matches Lock/Unlock and RLock/RUnlock per mutex per
// goroutine with a mode-aware stack (LIFO, the way nested critical
// sections release), recording double-locks. Reader acquisitions are
// shared: an RLock while the goroutine only holds reader locks is fine;
// a Lock while holding anything, or an RLock while holding the write
// lock, self-deadlocks.
func (m *Model) collectMutexes() {
	byKey := make(map[objKey]*mutexInfo)
	type stackKey struct {
		key objKey
		g   int
	}
	stacks := make(map[stackKey][]int)
	var pending []struct {
		mi        *mutexInfo
		lock, top int
	}
	// lastOfKind returns the most recent stack entry of the given
	// acquisition kind, or -1.
	lastOfKind := func(stack []int, kind OpKind) int {
		for j := len(stack) - 1; j >= 0; j-- {
			if m.Ops[stack[j]].Kind == kind {
				return j
			}
		}
		return -1
	}
	for i, op := range m.Ops {
		switch op.Kind {
		case OpLock, OpUnlock, OpRLock, OpRUnlock:
		default:
			continue
		}
		if !op.Key.known() {
			continue
		}
		mi := byKey[op.Key]
		if mi == nil {
			mi = &mutexInfo{key: op.Key}
			byKey[op.Key] = mi
			m.mutexes = append(m.mutexes, mi)
		}
		sk := stackKey{key: op.Key, g: op.G}
		stack := stacks[sk]
		switch op.Kind {
		case OpLock:
			if len(stack) > 0 {
				pending = append(pending, struct {
					mi        *mutexInfo
					lock, top int
				}{mi, i, stack[len(stack)-1]})
			}
			stacks[sk] = append(stack, i)
		case OpRLock:
			if w := lastOfKind(stack, OpLock); w >= 0 {
				pending = append(pending, struct {
					mi        *mutexInfo
					lock, top int
				}{mi, i, stack[w]})
			}
			stacks[sk] = append(stack, i)
		case OpUnlock:
			j := lastOfKind(stack, OpLock)
			if j < 0 {
				mi.unmatchedUnlocks = append(mi.unmatchedUnlocks, i)
				continue
			}
			mi.pairs = append(mi.pairs, lockPair{lock: stack[j], unlock: i})
			stacks[sk] = append(stack[:j:j], stack[j+1:]...)
		case OpRUnlock:
			j := lastOfKind(stack, OpRLock)
			if j < 0 {
				mi.unmatchedRUnlocks = append(mi.unmatchedRUnlocks, i)
				continue
			}
			mi.rpairs = append(mi.rpairs, lockPair{lock: stack[j], unlock: i})
			stacks[sk] = append(stack[:j:j], stack[j+1:]...)
		}
	}
	for sk, stack := range stacks {
		mi := byKey[sk.key]
		for _, l := range stack {
			if m.Ops[l].Kind == OpRLock {
				mi.unmatchedRLocks = append(mi.unmatchedRLocks, l)
			} else {
				mi.unmatchedLocks = append(mi.unmatchedLocks, l)
			}
		}
	}
	for _, mi := range m.mutexes {
		slices.Sort(mi.unmatchedLocks)
		slices.Sort(mi.unmatchedRLocks)
	}
	for _, p := range pending {
		released := -1
		for _, pr := range p.mi.pairs {
			if pr.lock == p.top {
				released = pr.unlock
				break
			}
		}
		if released < 0 {
			for _, pr := range p.mi.rpairs {
				if pr.lock == p.top {
					released = pr.unlock
					break
				}
			}
		}
		p.mi.doubles = append(p.mi.doubles, doubleLock{
			lock: p.lock, heldSince: p.top, releasedBy: released,
		})
	}
}

// collectWGs groups WaitGroup operations and sums the constant Add
// deltas; a non-constant or loop-carried Add (or a loop-carried Done)
// makes the count unknowable and disables the counting diagnostic.
func (m *Model) collectWGs() {
	byKey := make(map[objKey]*wgInfo)
	for i, op := range m.Ops {
		switch op.Kind {
		case OpAdd, OpDone, OpWait:
		default:
			continue
		}
		if !op.Key.known() {
			continue
		}
		wi := byKey[op.Key]
		if wi == nil {
			wi = &wgInfo{key: op.Key}
			byKey[op.Key] = wi
			m.wgs = append(m.wgs, wi)
		}
		switch op.Kind {
		case OpAdd:
			wi.adds = append(wi.adds, i)
			if wi.addTotal >= 0 && op.Add >= 0 && !op.InLoop {
				wi.addTotal += op.Add
			} else {
				wi.addTotal = -1
			}
		case OpDone:
			wi.dones = append(wi.dones, i)
			if op.InLoop {
				wi.addTotal = -1
			}
		case OpWait:
			wi.waits = append(wi.waits, i)
		}
	}
}

// buildSpecSkeleton declares one element per goroutine with the event
// classes its operations use.
func (m *Model) buildSpecSkeleton(pkgName string) {
	s := spec.New(pkgName + "." + m.Func)
	classes := make([][]string, len(m.Gors))
	seen := make([]map[string]bool, len(m.Gors))
	for g := range m.Gors {
		seen[g] = make(map[string]bool)
	}
	for _, op := range m.Ops {
		c := m.classOf(op)
		if !seen[op.G][c] {
			seen[op.G][c] = true
			classes[op.G] = append(classes[op.G], c)
		}
	}
	for g, gor := range m.Gors {
		d := &spec.ElementDecl{Name: gor.Name}
		for _, c := range classes[g] {
			d.Events = append(d.Events, spec.EventClassDecl{Name: c})
		}
		s.AddElement(d)
	}
	m.Spec = s
}

// addEnables adds the candidate enable edges in deterministic order,
// skipping any edge that would close a temporal-order cycle with the
// edges (and element orders) already present. A skipped edge lands in
// Dropped and gates off the restriction describing its pairing — which
// is exactly what happens with a crossed rendezvous: the program order
// and the pairing cannot both be respected, the model stays acyclic (and
// legal), and the circular wait surfaces as GEM015 instead.
func (m *Model) addEnables(b *core.Builder) {
	// succ holds accepted enable edges plus the element order, as op
	// indices, for the DFS cycle check.
	succ := make([][]int, len(m.Ops))
	for i := range m.Ops {
		if last := prevOnSameG(m.Ops, i); last >= 0 {
			succ[last] = append(succ[last], i)
		}
	}
	reaches := func(from, to int) bool {
		if from == to {
			return true
		}
		seen := make([]bool, len(m.Ops))
		stack := []int{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == to {
				return true
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			stack = append(stack, succ[v]...)
		}
		return false
	}
	add := func(src, dst int) bool {
		if reaches(dst, src) {
			m.Dropped = append(m.Dropped, [2]core.EventID{m.EventOf[src], m.EventOf[dst]})
			return false
		}
		succ[src] = append(succ[src], dst)
		b.Enable(m.EventOf[src], m.EventOf[dst])
		m.Enables = append(m.Enables, [2]core.EventID{m.EventOf[src], m.EventOf[dst]})
		return true
	}

	// Spawn edges: the go statement enables the child's first operation.
	for i, op := range m.Ops {
		if op.Kind != OpSpawn {
			continue
		}
		if first := firstOpOf(m.Ops, op.Child); first >= 0 {
			add(i, first)
		}
	}
	// Channel pairings.
	for _, ci := range m.chans {
		ci.edgesOK = true
		for _, p := range ci.pairs {
			ci.edgesOK = add(p[0], p[1]) && ci.edgesOK
		}
		for _, p := range ci.closePairs {
			ci.edgesOK = add(p[0], p[1]) && ci.edgesOK
		}
	}
	// Lock regions (writer and reader).
	for _, mi := range m.mutexes {
		mi.edgesOK = true
		for _, p := range mi.pairs {
			mi.edgesOK = add(p.lock, p.unlock) && mi.edgesOK
		}
		for _, p := range mi.rpairs {
			mi.edgesOK = add(p.lock, p.unlock) && mi.edgesOK
		}
	}
	// WaitGroup joins: every Done enables every Wait.
	for _, wi := range m.wgs {
		wi.edgesOK = true
		for _, w := range wi.waits {
			for _, d := range wi.dones {
				wi.edgesOK = add(d, w) && wi.edgesOK
			}
		}
	}
}

func prevOnSameG(ops []Op, i int) int {
	for j := i - 1; j >= 0; j-- {
		if ops[j].G == ops[i].G {
			return j
		}
	}
	return -1
}

func firstOpOf(ops []Op, g int) int {
	for i, op := range ops {
		if op.G == g {
			return i
		}
	}
	return -1
}

// addRestrictions emits the GEM restrictions describing the pairings —
// but only where the pairing is complete and every edge survived, so the
// computation satisfies its own spec by construction.
func (m *Model) addRestrictions() {
	for _, ci := range m.chans {
		n := m.names[ci.key]
		sendRef := core.Ref("", "send_"+n)
		recvRef := core.Ref("", "recv_"+n)
		srcRefs := []core.ClassRef{sendRef}
		if len(ci.closes) > 0 {
			srcRefs = append(srcRefs, core.Ref("", "close_"+n))
		}
		allRecvsMatched := len(ci.pairs)+len(ci.closePairs) == len(ci.recvs)
		if len(ci.recvs) > 0 && allRecvsMatched && ci.edgesOK {
			// Every receive is enabled by exactly one send or close.
			m.Spec.AddRestriction("rendezvous_"+n, logic.ForAll{
				Var: "r", Ref: recvRef,
				Body: logic.ExistsUniqueIn{
					Var: "s", Refs: srcRefs,
					Body: logic.Enables{X: "s", Y: "r"},
				},
			})
		}
		if len(ci.sends) > 0 && len(ci.pairs) == len(ci.sends) &&
			ci.edgesOK && !ci.hasLoopOp {
			// Every send that has occurred is eventually received.
			m.Spec.AddRestriction("delivery_"+n, logic.Box{F: logic.ForAll{
				Var: "s", Ref: sendRef,
				Body: logic.Implies{
					If: logic.Occurred{Var: "s"},
					Then: logic.Diamond{F: logic.Exists{
						Var: "r", Ref: recvRef,
						Body: logic.And{
							logic.Enables{X: "s", Y: "r"},
							logic.Occurred{Var: "r"},
						},
					}},
				},
			}})
		}
	}
	for _, mi := range m.mutexes {
		n := m.names[mi.key]
		if len(mi.pairs) > 0 && len(mi.unmatchedLocks) == 0 &&
			len(mi.unmatchedUnlocks) == 0 && mi.edgesOK {
			// Every unlock is enabled by exactly one lock (its own acquire).
			m.Spec.AddRestriction("mutex_"+n, logic.ForAll{
				Var: "u", Ref: core.Ref("", "unlock_"+n),
				Body: logic.ExistsUnique{
					Var: "l", Ref: core.Ref("", "lock_"+n),
					Body: logic.Enables{X: "l", Y: "u"},
				},
			})
		}
		if len(mi.rpairs) > 0 && len(mi.unmatchedRLocks) == 0 &&
			len(mi.unmatchedRUnlocks) == 0 && mi.edgesOK {
			// Reader regions pair the same way: every RUnlock is enabled
			// by exactly one RLock.
			m.Spec.AddRestriction("rmutex_"+n, logic.ForAll{
				Var: "u", Ref: core.Ref("", "runlock_"+n),
				Body: logic.ExistsUnique{
					Var: "l", Ref: core.Ref("", "rlock_"+n),
					Body: logic.Enables{X: "l", Y: "u"},
				},
			})
		}
	}
	for _, wi := range m.wgs {
		if len(wi.dones) == 0 || len(wi.waits) == 0 || !wi.edgesOK {
			continue
		}
		n := m.names[wi.key]
		// Every Done flows into a Wait (the join structure).
		m.Spec.AddRestriction("waitgroup_"+n, logic.ForAll{
			Var: "d", Ref: core.Ref("", "done_"+n),
			Body: logic.Exists{
				Var: "w", Ref: core.Ref("", "wait_"+n),
				Body: logic.Enables{X: "d", Y: "w"},
			},
		})
	}
}

// The exported object-identity surface: downstream passes (internal/race)
// group operations by the object they act on without reaching into the
// unexported objKey representation.

// SameObj reports whether operations i and j act on the same resolved
// object (same root types.Object and selector path).
func (m *Model) SameObj(i, j int) bool {
	return m.Ops[i].Key.known() && m.Ops[i].Key == m.Ops[j].Key
}

// ObjIDOf returns a stable per-model identifier for the object an
// operation acts on (the collision-free class-name suffix assignNames
// picked), and whether the object was resolved at all.
func (m *Model) ObjIDOf(op int) (string, bool) {
	key := m.Ops[op].Key
	if !key.known() {
		return "", false
	}
	id, ok := m.names[key]
	return id, ok
}

// ObjNameOf renders the object an operation acts on for messages
// ("counter", "s.mu").
func (m *Model) ObjNameOf(op int) string { return m.objName(m.Ops[op].Key) }
