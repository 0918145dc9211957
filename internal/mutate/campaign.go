package mutate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gem/internal/core"
	"gem/internal/fanout"
	"gem/internal/gemlang"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/store"
)

// The campaign driver: generate N mutants deterministically, dedup on
// (spec hash × computation fingerprint), fan the unique mutants out
// (fanout.First) with per-mutant cancellation, check each under all
// three engines, shrink every failure, and persist the shrunk corpus.
//
// Engine agreement is the campaign's verification target: a mutant on
// which auto, lattice, and seq disagree — different legality verdict,
// different blamed restrictions, or a witness that fails Verify — is a
// finding. Mutants that are merely illegal are the expected outcome and
// become corpus entries.

// engines is the verdict matrix every mutant is checked under.
var engines = []logic.Engine{logic.EngineAuto, logic.EngineLattice, logic.EngineSeq}

// Config parameterizes a campaign.
type Config struct {
	Seeds []Seed // defaults to DefaultSeeds()
	N     int    // mutants to generate (default 2000)
	Seed  int64  // campaign seed
	// Parallelism bounds the checking workers (values < 2 run
	// sequentially); generation and reporting are always sequential, so
	// output is identical across values.
	Parallelism int
	Ctx         context.Context    // campaign budget/interrupt (nil = background)
	Cache       logic.VerdictCache // verdict store, may be nil
	Store       *store.Store       // corpus persistence, may be nil
	Name        string             // manifest name (default "gemmut")
}

// EngineVerdict is one engine's view of one mutant.
type EngineVerdict struct {
	Engine string
	Legal  bool
	Blame  []string // sorted "kind:owner/restriction" strings
}

// Finding is a campaign-level verification failure: the engines
// disagreed, a witness failed Verify, or shrinking could not re-validate
// a failure. A campaign of a correct checker reports none.
type Finding struct {
	Index      int
	Seed       string
	Op         Op
	Provenance string
	Kind       string // "engine-disagreement", "bad-witness", "shrink-failure"
	Detail     string
}

// Result is the outcome for one unique mutant.
type Result struct {
	Mutant      *Mutant
	SpecHash    string
	Fingerprint string
	Legal       bool
	Blame       []string // the agreed blame (auto engine's view)
	Shrunk      *ShrinkResult
	CorpusKey   string // set when a shrunk entry was persisted
}

// Report is a completed campaign. Everything here is a deterministic
// function of (seeds, campaign seed, N) — no timing, no store state —
// so Render output is byte-identical across -j values and across
// cold/warm cache runs.
type Report struct {
	Name     string
	Seed     int64
	N        int
	Rejected int
	ByOp     map[Op]int // generated (accepted) mutants per operator
	RejByOp  map[Op]int
	Deduped  int // generated mutants dropped as duplicates
	Unique   int
	Legal    int
	Illegal  int
	Findings []Finding
	Results  []*Result // unique mutants in generation order
}

// Run executes a campaign.
func Run(cfg Config) (*Report, error) {
	if cfg.Seeds == nil {
		seeds, err := DefaultSeeds()
		if err != nil {
			return nil, err
		}
		cfg.Seeds = seeds
	}
	if cfg.N <= 0 {
		cfg.N = 2000
	}
	if cfg.Name == "" {
		cfg.Name = "gemmut"
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	rep := &Report{
		Name:    cfg.Name,
		Seed:    cfg.Seed,
		N:       cfg.N,
		ByOp:    make(map[Op]int),
		RejByOp: make(map[Op]int),
	}

	// Generation + dedup: sequential by construction. Each mutant is a
	// pure function of (campaign seed, index), so this phase is identical
	// no matter how the checking below is scheduled.
	_, genSpan := obs.StartSpan(ctx, "mutate.gen")
	specHashes := make(map[*spec.Spec]string)
	hashOf := func(sp *spec.Spec) string {
		if h, ok := specHashes[sp]; ok {
			return h
		}
		h := gemlang.HashSpec(sp)
		specHashes[sp] = h
		return h
	}
	seen := make(map[string]bool, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if ctx.Err() != nil {
			genSpan.End()
			return rep, ctx.Err()
		}
		m, err := Generate(cfg.Seeds, cfg.Seed, i)
		if err != nil {
			var rej *Rejected
			if !asRejected(err, &rej) {
				genSpan.End()
				return rep, err
			}
			rep.Rejected++
			rep.RejByOp[rej.Op]++
			obs.Count("mutate.reject", 1)
			continue
		}
		obs.Count("mutate.gen", 1)
		rep.ByOp[m.Op]++
		h, fp := hashOf(m.Spec), core.Fingerprint(m.Comp)
		dk := h + "\x00" + fp
		if seen[dk] {
			rep.Deduped++
			obs.Count("mutate.dedup", 1)
			continue
		}
		seen[dk] = true
		rep.Results = append(rep.Results, &Result{Mutant: m, SpecHash: h, Fingerprint: fp})
	}
	genSpan.End()
	rep.Unique = len(rep.Results)

	// Checking + shrinking: each mutant's result and findings land in
	// its own slot, and the findings are concatenated in generation
	// order, so scheduling never affects the report.
	findings := make([][]Finding, rep.Unique)
	fanout.First(ctx, cfg.Parallelism, fanout.Range(rep.Unique), func(i, _ int) (struct{}, bool) {
		findings[i] = checkMutant(ctx, cfg, rep.Results[i])
		return struct{}{}, true
	})
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	for _, fs := range findings {
		rep.Findings = append(rep.Findings, fs...)
	}
	for _, r := range rep.Results {
		if r.Legal {
			rep.Legal++
		} else {
			rep.Illegal++
		}
	}
	persistCorpus(cfg, rep)
	return rep, nil
}

func asRejected(err error, out **Rejected) bool {
	r, ok := err.(*Rejected)
	if ok {
		*out = r
	}
	return ok
}

// checkMutant runs one mutant through the engine matrix, records the
// agreed verdict, shrinks failures, and returns its findings. Each
// mutant gets its own cancellable context: when the campaign budget
// expires mid-check, the engines' enumerations stop at the next
// cancellation point.
func checkMutant(ctx context.Context, cfg Config, r *Result) (findings []Finding) {
	m := r.Mutant
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, span := obs.StartSpan(mctx, "mutate.check")
	defer span.End()

	verdicts := make([]EngineVerdict, len(engines))
	results := make([]legal.Result, len(engines))
	for ei, eng := range engines {
		res := legal.Check(m.Spec, m.Comp, legal.Options{
			Check: logic.CheckOptions{
				Engine: eng,
				Ctx:    mctx,
				Cache:  cfg.Cache,
			},
		})
		results[ei] = res
		verdicts[ei] = EngineVerdict{Engine: eng.String(), Legal: res.Legal(), Blame: blame(res)}
		for _, v := range res.Violations {
			if v.Cx != nil {
				if err := v.Cx.Verify(); err != nil {
					findings = append(findings, Finding{
						Index: m.Index, Seed: m.Seed, Op: m.Op, Provenance: m.Provenance,
						Kind:   "bad-witness",
						Detail: fmt.Sprintf("engine %s: witness for %s/%s fails Verify: %v", eng, v.Owner, v.Restriction, err),
					})
				}
			}
		}
	}
	if mctx.Err() != nil {
		return findings // partial verdicts are never compared
	}
	r.Legal = verdicts[0].Legal
	r.Blame = verdicts[0].Blame
	for _, v := range verdicts[1:] {
		if v.Legal != verdicts[0].Legal || !equalStrings(v.Blame, verdicts[0].Blame) {
			findings = append(findings, Finding{
				Index: m.Index, Seed: m.Seed, Op: m.Op, Provenance: m.Provenance,
				Kind:   "engine-disagreement",
				Detail: disagreementDetail(verdicts),
			})
			break
		}
	}

	// Shrink the first violation of the auto run (declaration order, so
	// the choice is deterministic). On an engine disagreement the auto
	// view may be "legal" — shrink the first engine that saw a failure so
	// the finding still carries a minimized witness.
	target := -1
	for ei := range results {
		if len(results[ei].Violations) > 0 {
			target = ei
			break
		}
	}
	if target < 0 {
		return findings
	}
	sh, err := Shrink(m.Spec, m.Comp, results[target].Violations[0], logic.CheckOptions{
		Engine: engines[target],
		Ctx:    mctx,
		Cache:  cfg.Cache,
	})
	if err != nil {
		if mctx.Err() != nil {
			return findings
		}
		return append(findings, Finding{
			Index: m.Index, Seed: m.Seed, Op: m.Op, Provenance: m.Provenance,
			Kind:   "shrink-failure",
			Detail: err.Error(),
		})
	}
	r.Shrunk = sh
	return findings
}

// blame renders a result's violations as the engine-agreement literature
// string: sorted kind:owner/restriction labels. Messages are excluded —
// engines word the same failure differently.
func blame(res legal.Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, fmt.Sprintf("%s:%s/%s", v.Kind, v.Owner, v.Restriction))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func disagreementDetail(vs []EngineVerdict) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		verdict := "legal"
		if !v.Legal {
			verdict = "illegal[" + joinComma(v.Blame) + "]"
		}
		parts[i] = v.Engine + "=" + verdict
	}
	return joinComma(parts)
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// ---- corpus persistence ----

// CorpusEntry is the persisted form of one shrunk failing mutant.
type CorpusEntry struct {
	Key         string
	Seed        string
	Op          Op
	Provenance  string
	Kind        string
	Owner       string
	Restriction string
	SpecSource  string // gemlang.Format of the mutant spec
	Comp        []byte // EncodeComputation of the shrunk computation
	Events      int
	OrigEvents  int
}

// Manifest indexes a campaign's persisted corpus.
type Manifest struct {
	Name     string
	Seed     int64
	N        int
	Unique   int
	Legal    int
	Illegal  int
	Findings int
	Keys     []string // sorted corpus-entry keys
}

// persistCorpus writes every shrunk failure and the campaign manifest
// through the store's corpus record layer. A nil store is a no-op.
func persistCorpus(cfg Config, rep *Report) {
	if cfg.Store == nil {
		return
	}
	keys := make(map[string]bool)
	for _, r := range rep.Results {
		if r.Shrunk == nil {
			continue
		}
		k := store.CorpusKey(r.SpecHash, core.Fingerprint(r.Shrunk.Comp))
		r.CorpusKey = k
		if keys[k] {
			continue // two mutants shrank to the same witness
		}
		keys[k] = true
		entry := CorpusEntry{
			Key:         k,
			Seed:        r.Mutant.Seed,
			Op:          r.Mutant.Op,
			Provenance:  r.Mutant.Provenance,
			Kind:        r.Shrunk.Kind.String(),
			Owner:       r.Shrunk.Owner,
			Restriction: r.Shrunk.Restriction,
			SpecSource:  gemlang.Format(r.Mutant.Spec),
			Comp:        EncodeComputation(r.Shrunk.Comp),
			Events:      r.Shrunk.Events,
			OrigEvents:  r.Shrunk.OrigEvents,
		}
		if payload, err := json.Marshal(entry); err == nil {
			cfg.Store.PutCorpus(k, payload)
		}
	}
	man := Manifest{
		Name:     rep.Name,
		Seed:     rep.Seed,
		N:        rep.N,
		Unique:   rep.Unique,
		Legal:    rep.Legal,
		Illegal:  rep.Illegal,
		Findings: len(rep.Findings),
	}
	for k := range keys {
		man.Keys = append(man.Keys, k)
	}
	sort.Strings(man.Keys)
	if payload, err := json.Marshal(man); err == nil {
		cfg.Store.PutManifest(rep.Name, payload)
	}
}

// Replay loads the named campaign's corpus from the store and re-checks
// every entry: the decoded computation must still be illegal under all
// three engines, with the persisted (owner, restriction) among the
// blamed set for restriction entries. It returns the number of entries
// replayed; any divergence is an error — the corpus is a regression
// suite for engine agreement.
func Replay(st *store.Store, name string, cache logic.VerdictCache) (int, error) {
	payload, ok := st.GetManifest(name)
	if !ok {
		return 0, fmt.Errorf("mutate: no manifest %q in store", name)
	}
	var man Manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		return 0, fmt.Errorf("mutate: corrupt manifest %q: %w", name, err)
	}
	for _, k := range man.Keys {
		data, ok := st.GetCorpus(k)
		if !ok {
			return 0, fmt.Errorf("mutate: corpus entry %s missing", k)
		}
		var entry CorpusEntry
		if err := json.Unmarshal(data, &entry); err != nil {
			return 0, fmt.Errorf("mutate: corpus entry %s corrupt: %w", k, err)
		}
		sp, err := gemlang.Parse(entry.SpecSource)
		if err != nil {
			return 0, fmt.Errorf("mutate: corpus entry %s spec does not parse: %w", k, err)
		}
		c, err := DecodeComputation(entry.Comp)
		if err != nil {
			return 0, fmt.Errorf("mutate: corpus entry %s: %w", k, err)
		}
		want := ""
		if entry.Kind == legal.RestrictionViolation.String() {
			want = fmt.Sprintf("%s:%s/%s", entry.Kind, entry.Owner, entry.Restriction)
		}
		for _, eng := range engines {
			res := legal.Check(sp, c, legal.Options{
				Check: logic.CheckOptions{Engine: eng, Cache: cache},
			})
			if res.Legal() {
				return 0, fmt.Errorf("mutate: corpus entry %s (op %s) is legal under engine %s", k, entry.Op, eng)
			}
			if want != "" && !containsString(blame(res), want) {
				return 0, fmt.Errorf("mutate: corpus entry %s: engine %s blames %v, want %s", k, eng, blame(res), want)
			}
		}
	}
	return len(man.Keys), nil
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// Render writes the deterministic campaign report: summary, per-operator
// table, findings, and the shrunk corpus. No timing, no store-traffic
// numbers — those go to the obs stats on stderr — so the bytes are
// identical across parallelism levels and cache temperatures.
func (rep *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "campaign %s: seed=%d n=%d unique=%d rejected=%d deduped=%d\n",
		rep.Name, rep.Seed, rep.N, rep.Unique, rep.Rejected, rep.Deduped)
	fmt.Fprintf(w, "verdicts: legal=%d illegal=%d findings=%d\n", rep.Legal, rep.Illegal, len(rep.Findings))
	fmt.Fprintln(w, "operators:")
	for _, op := range AllOps {
		if rep.ByOp[op] == 0 && rep.RejByOp[op] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-18s generated=%-5d rejected=%d\n", op, rep.ByOp[op], rep.RejByOp[op])
	}
	shrunk := 0
	for _, r := range rep.Results {
		if r.Shrunk != nil {
			shrunk++
		}
	}
	fmt.Fprintf(w, "corpus: %d shrunk witnesses\n", shrunk)
	if len(rep.Findings) == 0 {
		fmt.Fprintln(w, "findings: none (engines agree on every mutant)")
	} else {
		fmt.Fprintln(w, "findings:")
		for _, f := range rep.Findings {
			fmt.Fprintf(w, "  mutant %d [%s on %s] %s: %s\n    %s\n", f.Index, f.Op, f.Seed, f.Kind, f.Provenance, f.Detail)
		}
	}
}

// RenderVerbose appends the per-mutant shrink table to Render's output.
func (rep *Report) RenderVerbose(w io.Writer) {
	rep.Render(w)
	fmt.Fprintln(w, "shrunk failures:")
	for _, r := range rep.Results {
		if r.Shrunk == nil {
			continue
		}
		m := r.Mutant
		fmt.Fprintf(w, "  mutant %d [%s on %s] %s: %d -> %d events (%s %s/%s)\n",
			m.Index, m.Op, m.Seed, m.Provenance,
			r.Shrunk.OrigEvents, r.Shrunk.Events, r.Shrunk.Kind, r.Shrunk.Owner, r.Shrunk.Restriction)
	}
}
