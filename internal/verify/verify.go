// Package verify implements the paper's Section 9 verification
// methodology: to prove that a program solves a problem, choose for each
// object of the problem specification P a corresponding significant
// object of the program specification PROG, then show that every legal
// PROG computation, observed only through its significant objects,
// behaves like a legal P computation.
//
// A Correspondence maps program event classes (optionally filtered on
// parameter values) to problem events, organised into per-transaction
// chains: each program event is assigned to a transaction (via a
// parameter such as the process name) and a stage within the problem's
// operation chain. Project builds the problem-level computation — events
// renamed, element order inherited from the program's temporal order,
// enable edges along each transaction's chain — and Check then runs the
// problem specification's legality check over it.
package verify

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gem/internal/core"
	"gem/internal/fanout"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/order"
	"gem/internal/spec"
	"gem/internal/thread"
)

// Rule maps one program event class to a problem event.
type Rule struct {
	// Match selects program events by class.
	Match core.ClassRef
	// Where further filters on parameter values (all must match).
	Where core.Params
	// Element and Class name the problem event this program event
	// corresponds to. Element may contain the placeholder %s, replaced by
	// the transaction key (e.g. "u%s" for per-user elements).
	Element string
	Class   string
	// CopyParams maps problem parameter names to program parameter names
	// to carry data values through the projection.
	CopyParams map[string]string
	// KeyParam names the program parameter identifying the transaction
	// the event belongs to (e.g. "proc"). The special value "@element"
	// uses the program event's element name. Empty means the rule's
	// events form a single shared transaction "".
	KeyParam string
	// Chain and Stage place the problem event in its operation chain;
	// consecutive stages of one transaction are connected by enable
	// edges. Stage is 0-based and must be contiguous per transaction. A
	// process performing the chain repeatedly yields several transactions:
	// within one (chain, key), a stage that does not exceed its
	// predecessor starts a new transaction.
	Chain string
	Stage int
	// Relaxed permits the edge from the previous stage even when the
	// program leaves the two events unordered (CSP's simultaneous
	// exchange): the projection linearizes them, which is sound because
	// any order consistent with the observed partial order may be
	// exhibited. The inverse order is still rejected.
	Relaxed bool
}

// Correspondence is a complete mapping for one (program, problem) pair.
type Correspondence struct {
	Rules []Rule
}

// CanonicalKey renders the correspondence deterministically (map fields
// sorted by key), so equal correspondences — however their maps were
// built — produce equal strings. The persistent store folds it into the
// sat-record key: a sat verdict is a function of the problem spec, the
// program computation, the correspondence, and the engine version.
func (corr Correspondence) CanonicalKey() string {
	var sb strings.Builder
	var keys []string
	for _, r := range corr.Rules {
		sb.WriteString("rule|")
		sb.WriteString(r.Match.String())
		sb.WriteByte('|')
		for i := 0; i < r.Where.Len(); i++ {
			w := r.Where.At(i)
			sb.WriteString(w.Name)
			sb.WriteByte('=')
			sb.WriteString(w.Value.String())
			sb.WriteByte(';')
		}
		sb.WriteByte('|')
		sb.WriteString(r.Element)
		sb.WriteByte('|')
		sb.WriteString(r.Class)
		sb.WriteByte('|')
		keys = keys[:0]
		for k := range r.CopyParams {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(r.CopyParams[k])
			sb.WriteByte(';')
		}
		sb.WriteByte('|')
		sb.WriteString(r.KeyParam)
		sb.WriteByte('|')
		sb.WriteString(r.Chain)
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(r.Stage))
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatBool(r.Relaxed))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SatCache persists successful sat checks: LookupSat reports whether a
// prior run recorded that this (problem, correspondence, computation)
// combination satisfied the problem, and StoreSat records one.
// Only sat == true is ever stored — failures are recomputed so their
// counterexamples stay fresh — which makes a hit sufficient to return a
// passing Result without projecting at all. LookupSat's ctx is the
// caller's (logic.CheckOptions.Ctx), so a lookup's span nests under the
// check that made it. Implementations (internal/store) must be safe for
// concurrent use and degrade internal failures to a miss.
type SatCache interface {
	LookupSat(ctx context.Context, problem *spec.Spec, c *core.Computation, corrKey string) bool
	StoreSat(problem *spec.Spec, c *core.Computation, corrKey string)
}

// Projection is the result of projecting a program computation.
type Projection struct {
	Comp *core.Computation
	// Origin maps each projected event to the program event it renames.
	Origin map[core.EventID]core.EventID
}

// Project builds the problem-level view of a program computation. It
// reports an error if the projection is structurally incoherent: two
// events mapping to one problem element are concurrent in the program
// (the problem's element order would be unfounded), a transaction's
// stages are out of temporal order, or a stage is duplicated.
func Project(c *core.Computation, corr Correspondence) (*Projection, error) {
	type hit struct {
		prog  core.EventID
		rule  *Rule
		key   string
		elem  string
		class string
	}
	var hits []hit
	for id := 0; id < c.NumEvents(); id++ {
		e := c.Event(core.EventID(id))
		for i := range corr.Rules {
			r := &corr.Rules[i]
			if !r.Match.Matches(e) || !whereMatches(e.Params(), r.Where) {
				continue
			}
			key := ""
			switch r.KeyParam {
			case "":
			case "@element":
				key = e.Element()
			default:
				v, ok := e.Params().Get(r.KeyParam)
				if !ok || v.Kind != core.KindString {
					return nil, fmt.Errorf("verify: event %s lacks string key parameter %q", e.Name(), r.KeyParam)
				}
				key = v.S
			}
			elem, err := expandElement(r.Element, key)
			if err != nil {
				return nil, err
			}
			hits = append(hits, hit{prog: e.ID(), rule: r, key: key, elem: elem, class: r.Class})
			break // first matching rule wins
		}
	}
	if len(hits) == 0 {
		return nil, fmt.Errorf("verify: no significant events matched")
	}

	// Order the hits by the linear extension of the program's temporal
	// order that places next, each time, the lowest-id hit no unplaced hit
	// precedes. The unplaced hits stay in id order behind the placed ones,
	// so on a computation whose ids extend its temporal order, as every
	// explored run's do (Log.Emit enables only events already emitted),
	// each step takes the first of them and the hits keep their id order.
	// The temporal order is acyclic, so the scan always finds one.
	unplaced := order.NewBitset(c.NumEvents())
	for _, h := range hits {
		unplaced.Set(int(h.prog))
	}
	preds := c.Preds()
	for i := range hits {
		k := i
		for preds.Row(int(hits[k].prog)).Intersects(unplaced) {
			k++
		}
		h := hits[k]
		copy(hits[i+1:k+1], hits[i:k])
		hits[i] = h
		unplaced.Clear(int(h.prog))
	}

	// Events at one problem element must be totally ordered in the
	// program: concurrent events cannot share an element.
	byElem := make(map[string][]hit)
	for _, h := range hits {
		byElem[h.elem] = append(byElem[h.elem], h)
	}
	for elem, hs := range byElem {
		for i := 1; i < len(hs); i++ {
			if c.Concurrent(hs[i-1].prog, hs[i].prog) {
				return nil, fmt.Errorf("verify: events %s and %s map to element %s but are concurrent",
					c.Event(hs[i-1].prog).Name(), c.Event(hs[i].prog).Name(), elem)
			}
		}
	}

	// Build the projected computation in the globally sorted order (which
	// fixes each problem element's order).
	b := core.NewBuilder()
	b.Grow(len(hits), 0)
	origin := make(map[core.EventID]core.EventID, len(hits))
	type stageEv struct {
		stage   int
		relaxed bool
		id      core.EventID
		prog    core.EventID
	}
	type txKey struct{ chain, key string }
	groups := make(map[txKey][]stageEv)
	var groupOrder []txKey
	for _, h := range hits {
		params := make([]core.Param, 0, 4)
		for problemParam, progParam := range h.rule.CopyParams {
			if v, ok := c.Event(h.prog).Params().Get(progParam); ok {
				params = append(params, core.P(problemParam, v))
			}
		}
		id := b.Event(h.elem, h.class, core.NewParams(params...))
		origin[id] = h.prog
		k := txKey{h.rule.Chain, h.key}
		if _, ok := groups[k]; !ok {
			groupOrder = append(groupOrder, k)
		}
		groups[k] = append(groups[k], stageEv{stage: h.rule.Stage, relaxed: h.rule.Relaxed, id: id, prog: h.prog})
	}

	// Within each (chain, key) group, the k-th transaction consists of
	// the k-th occurrence of each stage (occurrences are already in the
	// global linearization order, which respects element order — a
	// process repeating a chain produces its stages in order). Pairing by
	// occurrence index is robust to concurrency between the tail of one
	// transaction and the head of the next.
	for _, k := range groupOrder {
		byStage := make(map[int][]stageEv)
		maxStage := -1
		for _, ev := range groups[k] {
			byStage[ev.stage] = append(byStage[ev.stage], ev)
			if ev.stage > maxStage {
				maxStage = ev.stage
			}
		}
		// Stage occurrence counts may only shrink as stages advance:
		// transactions still in flight have completed a prefix of the
		// chain, but a later stage can never out-count an earlier one.
		for s := 1; s <= maxStage; s++ {
			if len(byStage[s]) > len(byStage[s-1]) {
				return nil, fmt.Errorf("verify: chain %q key %q has %d events at stage %d but %d at stage %d",
					k.chain, k.key, len(byStage[s-1]), s-1, len(byStage[s]), s)
			}
		}
		for n := 0; n < len(byStage[0]); n++ {
			for s := 1; s <= maxStage; s++ {
				if n >= len(byStage[s]) {
					break
				}
				prev, ev := byStage[s-1][n], byStage[s][n]
				if c.Temporal(ev.prog, prev.prog) {
					return nil, fmt.Errorf("verify: chain %q key %q tx %d: stage %d precedes stage %d in the program order",
						k.chain, k.key, n, s, s-1)
				}
				if !ev.relaxed && !c.Temporal(prev.prog, ev.prog) {
					return nil, fmt.Errorf("verify: chain %q key %q tx %d: stage %d does not follow stage %d in the program order (events %s, %s)",
						k.chain, k.key, n, s, s-1, c.Event(prev.prog).Name(), c.Event(ev.prog).Name())
				}
				b.Enable(prev.id, ev.id)
			}
		}
	}
	comp, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("verify: projected computation invalid: %w", err)
	}
	return &Projection{Comp: comp, Origin: origin}, nil
}

// Result reports the outcome of a sat check for one program computation.
type Result struct {
	Projection *Projection
	Legality   legal.Result
	// ProjectionErr is set when projection itself failed (which is
	// already a refutation of sat).
	ProjectionErr error
}

// Sat reports whether the check succeeded.
func (r Result) Sat() bool {
	return r.ProjectionErr == nil && r.Legality.Legal()
}

// Error describes the failure, or returns nil.
func (r Result) Error() error {
	if r.ProjectionErr != nil {
		return r.ProjectionErr
	}
	return r.Legality.Error()
}

// Check runs the paper's sat check for one program computation: project
// onto the significant objects, label the problem's threads, and check
// every restriction of the problem specification on the projection.
// The judgement is dynamic throughout: no static analysis of the
// specification decides a restriction here (gemlint, gemc and gemcheck's
// pre-flight lint report those analyses instead).
// Failing restrictions carry counterexamples: a temporal failure is
// mostly refuted inside the lattice fixpoint engine, with the witness
// sequence extracted from the history lattice rather than recomputed by
// sequence enumeration.
// With opts.Cache set to a store that also implements SatCache, a
// recorded sat for this exact (problem, correspondence, computation)
// key short-circuits the whole check — no projection, no
// legality pass; the returned Result is the passing zero Result (nil
// Projection), which callers must treat as sat-only. On a miss the
// check runs normally, with restriction verdicts flowing through
// opts.Cache, and a passing, uncancelled result is written behind.
func Check(problem *spec.Spec, c *core.Computation, corr Correspondence, opts logic.CheckOptions) Result {
	obs.Count("sat.checks", 1)
	var sat SatCache
	var corrKey string
	if opts.Cache != nil {
		if s, ok := opts.Cache.(SatCache); ok {
			sat = s
			corrKey = corr.CanonicalKey()
			if sat.LookupSat(opts.Ctx, problem, c, corrKey) {
				return Result{}
			}
		}
	}
	proj, err := Project(c, corr)
	if err != nil {
		return Result{ProjectionErr: err}
	}
	thread.Apply(proj.Comp, problem.Threads()...)
	res := legal.Check(problem, proj.Comp, legal.Options{Check: opts})
	r := Result{Projection: proj, Legality: res}
	// Write the sat record only for a genuine, complete pass: a
	// cancelled context can truncate legal.Check into an empty (passing-
	// looking) partial result, which must never be persisted.
	if sat != nil && r.Sat() && !logic.Cancelled(logic.Done(opts.Ctx)) {
		sat.StoreSat(problem, c, corrKey)
	}
	return r
}

// CheckAll runs Check over a set of program computations (e.g. every run
// of an exhaustive exploration), returning the index and result of the
// first failure, or (-1, ok-result) if all satisfy the problem. With
// opts.Parallelism > 1 the computations are fanned out to a worker pool
// with deterministic first-failure semantics: the reported index and
// result are the ones the sequential run finds. Cancelling opts.Ctx
// stops the fan-out promptly with the best failure found so far (see
// fanout.First); callers distinguish "all sat" from "interrupted" via
// ctx.Err().
func CheckAll(problem *spec.Spec, comps []*core.Computation, corr Correspondence, opts logic.CheckOptions) (int, Result) {
	idx, res, _ := fanout.First(opts.Ctx, opts.Parallelism, fanout.Range(len(comps)), func(i, _ int) (Result, bool) {
		r := Check(problem, comps[i], corr, opts)
		return r, r.Sat()
	})
	return idx, res
}

func whereMatches(params, where core.Params) bool {
	for i := 0; i < where.Len(); i++ {
		w := where.At(i)
		if v, _ := params.Get(w.Name); v != w.Value {
			return false
		}
	}
	return true
}

// expandElement substitutes the transaction key into an element pattern.
// Only the %s placeholder is supported, at most once; any other format
// verb (or a trailing %) is rejected with a clear error instead of
// letting fmt.Sprintf mint element names like "u%!d(string=r1)".
func expandElement(pattern, key string) (string, error) {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] != '%' {
			continue
		}
		if i+1 >= len(pattern) {
			return "", fmt.Errorf("verify: element pattern %q ends with a bare %%", pattern)
		}
		if pattern[i+1] != 's' {
			return "", fmt.Errorf("verify: element pattern %q contains unsupported verb %%%c (only %%s is allowed)", pattern, pattern[i+1])
		}
		i++
	}
	if !strings.Contains(pattern, "%s") {
		return pattern, nil
	}
	if strings.Count(pattern, "%s") > 1 {
		return "", fmt.Errorf("verify: element pattern %q uses %%s more than once", pattern)
	}
	return strings.Replace(pattern, "%s", key, 1), nil
}
