// Package dbupdate implements the paper's first distributed application:
// an algorithm for performing updates to a replicated distributed
// database. Each site holds a replica; an update originates at one site,
// is stamped with a Lamport-clock version, applied locally, and
// broadcast; receiving sites apply it if and only if its version
// dominates the currently applied one (the last-writer-wins rule of
// early timestamp-based replication). Channels are GEM elements, so the
// computation records message sends and receipts with their causal
// enables.
//
// Verified properties (the paper reports lack of deadlock and functional
// correctness for this application):
//
//   - Termination: exploration never reaches a state with undelivered
//     messages and no transitions.
//   - Convergence (functional correctness): in every complete
//     computation, all replicas end at the value of the version-maximal
//     update.
//   - Message integrity: a receipt is enabled by exactly one send and
//     carries its payload (checked by the GEM spec).
package dbupdate

import (
	"fmt"
	"sort"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/logic"
	"gem/internal/spec"
)

// Update is a client update originating at a site.
type Update struct {
	Site  int // 0-based originating site
	Value int64
}

// Config describes a scenario.
type Config struct {
	Sites   int
	Updates []Update
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sites < 1 {
		return fmt.Errorf("dbupdate: need at least one site")
	}
	if len(c.Updates) == 0 {
		return fmt.Errorf("dbupdate: need at least one update")
	}
	for _, u := range c.Updates {
		if u.Site < 0 || u.Site >= c.Sites {
			return fmt.Errorf("dbupdate: update site %d out of range", u.Site)
		}
	}
	return nil
}

// SiteElement names site i's replica element.
func SiteElement(i int) string { return fmt.Sprintf("site%d", i) }

// ChanElement names the channel element from site i to site j.
func ChanElement(i, j int) string { return fmt.Sprintf("chan.%d.%d", i, j) }

// Run is one complete execution.
type Run struct {
	Comp *core.Computation
	// Final per-site applied values.
	Finals []int64
	// Converged reports whether all sites ended equal.
	Converged bool
}

// version orders updates: Lamport timestamp, then site id.
type version struct {
	ts   int64
	site int
}

func (v version) less(o version) bool {
	if v.ts != o.ts {
		return v.ts < o.ts
	}
	return v.site < o.site
}

type message struct {
	from, to int
	ver      version
	val      int64
	sendEv   int
}

type state struct {
	explore.Log
	opts    *ExploreOptions
	clock   []int64
	applied []version
	value   []int64
	// pendingUpdates[i] = updates not yet originated at site i, in order.
	pendingUpdates [][]Update
	// inflight messages per channel (FIFO).
	inflight map[[2]int][]message
}

// ExploreOptions bounds the exploration and injects failures.
type ExploreOptions struct {
	explore.Options
	// Mutation flags for failure injection:
	// DropLastMessage silently loses the last broadcast message.
	DropLastMessage bool
	// IgnoreVersions applies every received update unconditionally.
	IgnoreVersions bool
}

// Explore enumerates the algorithm's schedules (which update originates
// when, and message delivery order across channels) and returns the
// distinct complete computations.
func Explore(cfg Config, opts ExploreOptions) ([]Run, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	init := &state{
		Log:            explore.NewLog(cfg.Sites),
		opts:           &opts,
		clock:          make([]int64, cfg.Sites),
		applied:        make([]version, cfg.Sites),
		value:          make([]int64, cfg.Sites),
		pendingUpdates: make([][]Update, cfg.Sites),
		inflight:       make(map[[2]int][]message),
	}
	for i := range init.applied {
		init.applied[i] = version{ts: -1, site: -1}
	}
	for _, u := range cfg.Updates {
		init.pendingUpdates[u.Site] = append(init.pendingUpdates[u.Site], u)
	}
	return explore.Collect(explore.Run[*state, transition], init, opts.Options)
}

// transition originates a site's next update or delivers the head of a
// channel.
type transition struct {
	kind string // "originate", "deliver"
	site int
	ch   [2]int
}

// Transitions branches over every originate and every delivery; nothing
// runs eagerly. Independent lets the driver's sleep sets skip the orders
// of steps at unrelated sites.
func (st *state) Transitions(bool) (transition, bool, []transition) {
	var ts []transition
	for i, q := range st.pendingUpdates {
		if len(q) > 0 {
			ts = append(ts, transition{kind: "originate", site: i})
		}
	}
	var chans [][2]int
	for ch, q := range st.inflight {
		if len(q) > 0 {
			chans = append(chans, ch)
		}
	}
	sort.Slice(chans, func(a, b int) bool {
		if chans[a][0] != chans[b][0] {
			return chans[a][0] < chans[b][0]
		}
		return chans[a][1] < chans[b][1]
	})
	for _, ch := range chans {
		ts = append(ts, transition{kind: "deliver", ch: ch})
	}
	return transition{}, false, ts
}

// actsOn is the site whose replica and clock t changes: an originate's
// own site, a delivery's receiving site.
func (t transition) actsOn() int {
	if t.kind == "originate" {
		return t.site
	}
	return t.ch[1]
}

// Independent reports whether two enabled transitions commute: they do
// when they act on different sites, unless one originates at the site
// the other's channel leaves from (the broadcast's Send and the
// delivery's Recv are events at the same channel element, so their
// order is part of the computation).
func (st *state) Independent(a, b transition) bool {
	feeds := func(o, d transition) bool {
		return o.kind == "originate" && d.kind == "deliver" && d.ch[0] == o.site
	}
	return a.actsOn() != b.actsOn() && !feeds(a, b) && !feeds(b, a)
}

func (st *state) Apply(t transition) error {
	if t.kind == "originate" {
		st.originate(t.site)
	} else {
		st.deliver(t.ch)
	}
	return nil
}

func (st *state) Clone() *state {
	next := &state{
		Log:            st.Log.Clone(),
		opts:           st.opts,
		clock:          append([]int64(nil), st.clock...),
		applied:        append([]version(nil), st.applied...),
		value:          append([]int64(nil), st.value...),
		pendingUpdates: make([][]Update, len(st.pendingUpdates)),
		inflight:       make(map[[2]int][]message, len(st.inflight)),
	}
	for i, q := range st.pendingUpdates {
		next.pendingUpdates[i] = append([]Update(nil), q...)
	}
	for ch, q := range st.inflight {
		next.inflight[ch] = append([]message(nil), q...)
	}
	return next
}

func (st *state) originate(site int) {
	u := st.pendingUpdates[site][0]
	st.pendingUpdates[site] = st.pendingUpdates[site][1:]
	st.clock[site]++
	ver := version{ts: st.clock[site], site: site}
	params := core.Params{
		"val": core.Int(u.Value), "ts": core.Int(ver.ts), "origin": core.Int(int64(site)),
	}
	upd := st.Emit(site, SiteElement(site), "Update", params)
	st.applyUpdate(site, ver, u.Value, upd)
	// Broadcast to every other site.
	for j := 0; j < len(st.clock); j++ {
		if j == site {
			continue
		}
		send := st.Emit(site, ChanElement(site, j), "Send", params.Clone())
		msg := message{from: site, to: j, ver: ver, val: u.Value, sendEv: send}
		if st.opts.DropLastMessage && len(st.pendingUpdates[site]) == 0 && j == len(st.clock)-1 && site != len(st.clock)-1 {
			continue // lose the message: Send happened, Recv never will
		}
		st.inflight[[2]int{site, j}] = append(st.inflight[[2]int{site, j}], msg)
	}
}

func (st *state) deliver(ch [2]int) {
	q := st.inflight[ch]
	msg := q[0]
	st.inflight[ch] = q[1:]
	params := core.Params{
		"val": core.Int(msg.val), "ts": core.Int(msg.ver.ts), "origin": core.Int(int64(msg.ver.site)),
	}
	recv := st.Emit(msg.to, ChanElement(msg.from, msg.to), "Recv", params, msg.sendEv)
	if msg.ver.ts > st.clock[msg.to] {
		st.clock[msg.to] = msg.ver.ts
	}
	if st.opts.IgnoreVersions || st.applied[msg.to].less(msg.ver) {
		st.applyUpdate(msg.to, msg.ver, msg.val, recv)
	}
}

func (st *state) applyUpdate(site int, ver version, val int64, cause int) {
	st.applied[site] = ver
	st.value[site] = val
	st.Emit(site, SiteElement(site), "Apply", core.Params{
		"val": core.Int(val), "ts": core.Int(ver.ts), "origin": core.Int(int64(ver.site)),
	}, cause)
}

func (st *state) Finish() (Run, error) {
	comp, err := st.Build()
	if err != nil {
		return Run{}, err
	}
	finals := append([]int64(nil), st.value...)
	converged := true
	for i := 1; i < len(finals); i++ {
		if finals[i] != finals[0] {
			converged = false
		}
	}
	return Run{Comp: comp, Finals: finals, Converged: converged}, nil
}

// Spec builds the GEM specification of the algorithm: site elements
// (Update, Apply), channel elements (Send, Recv) grouped per link, with
// the message-integrity restrictions.
func Spec(cfg Config) *spec.Spec {
	s := spec.New("dbupdate")
	verParams := []spec.ParamDecl{
		{Name: "val", Type: "VALUE"}, {Name: "ts", Type: "INTEGER"}, {Name: "origin", Type: "INTEGER"},
	}
	for i := 0; i < cfg.Sites; i++ {
		s.AddElement(&spec.ElementDecl{
			Name: SiteElement(i),
			Events: []spec.EventClassDecl{
				{Name: "Update", Params: verParams},
				{Name: "Apply", Params: verParams},
			},
		})
	}
	for i := 0; i < cfg.Sites; i++ {
		for j := 0; j < cfg.Sites; j++ {
			if i == j {
				continue
			}
			elem := ChanElement(i, j)
			s.AddElement(&spec.ElementDecl{
				Name: elem,
				Events: []spec.EventClassDecl{
					{Name: "Send", Params: verParams},
					{Name: "Recv", Params: verParams},
				},
				Restrictions: []spec.Restriction{
					{
						Name: elem + ".send-recv-prereq",
						F:    logic.Prereq(core.Ref(elem, "Send"), core.Ref(elem, "Recv")),
					},
					{
						Name: elem + ".payload-integrity",
						F:    payloadIntegrity(elem),
					},
				},
			})
		}
	}
	return s
}

func payloadIntegrity(elem string) logic.Formula {
	return logic.ForAll{Var: "_s", Ref: core.Ref(elem, "Send"),
		Body: logic.ForAll{Var: "_r", Ref: core.Ref(elem, "Recv"),
			Body: logic.Implies{
				If: logic.Enables{X: "_s", Y: "_r"},
				Then: logic.And{
					logic.ParamCmp{X: "_s", P: "val", Op: logic.OpEq, Y: "_r", Q: "val"},
					logic.ParamCmp{X: "_s", P: "ts", Op: logic.OpEq, Y: "_r", Q: "ts"},
					logic.ParamCmp{X: "_s", P: "origin", Op: logic.OpEq, Y: "_r", Q: "origin"},
				},
			},
		},
	}
}

// ConvergenceFormula builds the functional-correctness restriction: at
// the full history, the last Apply at every pair of sites carries the
// same value. Check with logic.HoldsAtFull.
func ConvergenceFormula(cfg Config) logic.Formula {
	lastApply := func(v string, site int) logic.Formula {
		return logic.Not{F: logic.Exists{
			Var: v + "_later", Ref: core.Ref(SiteElement(site), "Apply"),
			Body: logic.ElemOrdered{X: v, Y: v + "_later"},
		}}
	}
	var out logic.And
	for i := 0; i < cfg.Sites; i++ {
		for j := i + 1; j < cfg.Sites; j++ {
			out = append(out, logic.ForAll{
				Var: "_ai", Ref: core.Ref(SiteElement(i), "Apply"),
				Body: logic.ForAll{
					Var: "_aj", Ref: core.Ref(SiteElement(j), "Apply"),
					Body: logic.Implies{
						If:   logic.And{lastApply("_ai", i), lastApply("_aj", j)},
						Then: logic.ParamCmp{X: "_ai", P: "val", Op: logic.OpEq, Y: "_aj", Q: "val"},
					},
				},
			})
		}
	}
	return out
}
