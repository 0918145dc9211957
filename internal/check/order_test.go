package check

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/gemlang"
	"gem/internal/monitor"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/dbupdate"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
	"gem/internal/spec"
)

// renderInOrder renders a computation exactly as emitted: events in
// event-ID order with their params, then each event's enables in the
// order the computation stores them. Unlike core.Fingerprint it touches
// no memoized state, so it can run before thread labels are assigned.
func renderInOrder(c *core.Computation) string {
	var sb strings.Builder
	for i := 0; i < c.NumEvents(); i++ {
		e := c.Event(core.EventID(i))
		fmt.Fprintf(&sb, "%d %s.%s^%d%s\n", i, e.Element(), e.Class(), e.Seq(), e.Params())
	}
	for i := 0; i < c.NumEvents(); i++ {
		for _, succ := range c.Enabled(core.EventID(i)) {
			fmt.Fprintf(&sb, "%d>%d\n", i, succ)
		}
	}
	return sb.String()
}

// orderHash hashes an ordered list of computations.
func orderHash(comps []*core.Computation) string {
	h := sha256.New()
	for i, c := range comps {
		fmt.Fprintf(h, "#%d\n%s", i, renderInOrder(c))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestExplorationOrderPinned pins every emitted computation, and the
// order of emission, of each exploration whose output reaches a user:
// the nine matrix cells, the two refutations, and the dbupdate
// exploration of `gemcheck distributed`. Event IDs, and so
// core.Fingerprint store keys and refutation indices, follow from this
// order; a reduction of the explorer must leave every hash unchanged.
func TestExplorationOrderPinned(t *testing.T) {
	want := map[string]string{
		"one-slot-buffer/monitor":                           "5:ff8bb977ed51c963",
		"bounded-buffer/monitor":                            "10:4453d6f969638536",
		"readers-writers/monitor":                           "72:def971d3d428ab3a",
		"one-slot-buffer/csp":                               "1:9ad73fbae430e9d0",
		"bounded-buffer/csp":                                "4:d3c1a65fafbe59a2",
		"readers-writers/csp":                               "22:23ae9a052625d3bd",
		"one-slot-buffer/ada":                               "1:84ca13efd112ebf9",
		"bounded-buffer/ada":                                "4:31614f9578b3d12e",
		"readers-writers/ada":                               "22:bf3a60cca1a9291a",
		"writers-priority-monitor vs readers-priority-spec": "66:018e2bc66212fdb3",
		"unguarded-deposit vs capacity-spec":                "10:896beac7f1bdf45a",
		"dbupdate":                                          "6:fac80edee1968251",
	}
	got := map[string]string{}
	for _, s := range Matrix() {
		var comps []*core.Computation
		if _, err := s.Stream(func(c *core.Computation) bool {
			comps = append(comps, c)
			return true
		}); err != nil {
			t.Fatalf("%s/%s: %v", s.Problem, s.Language, err)
		}
		got[s.Problem+"/"+string(s.Language)] = fmt.Sprintf("%d:%s", len(comps), orderHash(comps))
	}
	for _, r := range Refutations() {
		_, comps, _, err := r.Build()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		got[r.Name] = fmt.Sprintf("%d:%s", len(comps), orderHash(comps))
	}
	cfg := dbupdate.Config{Sites: 3, Updates: []dbupdate.Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	runs, _, err := dbupdate.Explore(cfg, dbupdate.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var comps []*core.Computation
	for _, r := range runs {
		comps = append(comps, r.Comp)
	}
	got["dbupdate"] = fmt.Sprintf("%d:%s", len(comps), orderHash(comps))

	for name, g := range got {
		if want[name] != g {
			t.Errorf("%s: emitted sequence %s, want %s", name, g, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d explorations, ran %d", len(want), len(got))
	}
}

// TestProgramSpecsPinned pins the program specification (monitor.Spec,
// csp.Spec or ada.Spec) of every program a CLI explores: the nine matrix
// cells, the two refutations, and the five readers/writers variants of
// `gemcheck rw` on both of its workloads, which include the examples'
// programs. gemlang.HashSpec renders each spec whole through Format, so
// a change to any element, class, parameter, group or restriction a
// language declares moves the digest.
func TestProgramSpecsPinned(t *testing.T) {
	const want = "7b8e5ea729b28e2094137f43c126bb76ebff3b8d9f6010cdb1424c3ab20d4739"
	one := oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}
	buf := boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}
	rw21 := rw.Workload{Readers: 2, Writers: 1}
	specs := []*spec.Spec{
		monitor.Spec(oneslot.NewMonitorProgram(one)),
		monitor.Spec(boundedbuf.NewMonitorProgram(buf)),
		monitor.Spec(rw.NewProgram(rw.ReadersPriority, rw21)),
		csp.Spec(oneslot.NewCSPProgram(one)),
		csp.Spec(boundedbuf.NewCSPProgram(buf)),
		csp.Spec(rw.NewCSPProgram(rw21)),
		ada.Spec(oneslot.NewAdaProgram(one)),
		ada.Spec(boundedbuf.NewAdaProgram(buf)),
		ada.Spec(rw.NewAdaProgram(rw21)),
		monitor.Spec(rw.NewProgram(rw.WritersPriority, rw21)),
		monitor.Spec(unguardedDeposit(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 1})),
	}
	for _, w := range []rw.Workload{rw21, {Readers: 1, Writers: 2}} {
		for _, v := range rw.Variants() {
			specs = append(specs, monitor.Spec(rw.NewProgram(v, w)))
		}
	}
	h := sha256.New()
	for i, s := range specs {
		fmt.Fprintf(h, "#%d %s\n", i, gemlang.HashSpec(s))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("program specs digest %s, want %s", got, want)
	}
}
