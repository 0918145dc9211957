package thread

import (
	"reflect"
	"strings"
	"testing"

	"gem/internal/core"
)

// rwChain builds two read-transaction chains through a control element,
// mirroring the paper's piRW thread: Read -> ReqRead -> StartRead ->
// Getval -> EndRead -> FinishRead.
func rwChain(t *testing.T) (*core.Computation, [2][]core.EventID) {
	t.Helper()
	b := core.NewBuilder()
	var chains [2][]core.EventID
	for u := 0; u < 2; u++ {
		user := "u" + string(rune('1'+u))
		read := b.Event(user, "Read", core.Params{})
		req := b.Event("control", "ReqRead", core.Params{})
		start := b.Event("control", "StartRead", core.Params{})
		get := b.Event("data", "Getval", core.Params{})
		end := b.Event("control", "EndRead", core.Params{})
		fin := b.Event(user, "FinishRead", core.Params{})
		ids := []core.EventID{read, req, start, get, end, fin}
		for i := 1; i < len(ids); i++ {
			b.Enable(ids[i-1], ids[i])
		}
		chains[u] = ids
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, chains
}

func rwType() Type {
	return Type{
		Name: "piRW",
		Path: []core.ClassRef{
			core.Ref("", "Read"),
			core.Ref("control", "ReqRead"),
			core.Ref("control", "StartRead"),
			core.Ref("data", "Getval"),
			core.Ref("control", "EndRead"),
			core.Ref("", "FinishRead"),
		},
	}
}

func TestApplyLabelsChains(t *testing.T) {
	c, chains := rwChain(t)
	insts := Apply(c, rwType())
	if len(insts) != 2 {
		t.Fatalf("got %d instances, want 2", len(insts))
	}
	if insts[0].ID != "piRW#1" || insts[1].ID != "piRW#2" {
		t.Errorf("instance ids = %s, %s", insts[0].ID, insts[1].ID)
	}
	for u, inst := range insts {
		if !reflect.DeepEqual(inst.Events, chains[u]) {
			t.Errorf("instance %d events = %v, want %v", u, inst.Events, chains[u])
		}
		for _, id := range chains[u] {
			if !c.Event(id).HasThread(inst.ID) {
				t.Errorf("event %s missing label %s", c.Event(id).Name(), inst.ID)
			}
		}
	}
	// Events of chain 1 must not carry chain 2's identifier.
	if c.Event(chains[0][2]).HasThread("piRW#2") {
		t.Error("thread identifiers leaked across chains")
	}
}

func TestThreadStopsWhenPathBreaks(t *testing.T) {
	// Read -> ReqRead, but ReqRead enables something off-path: the thread
	// stops there.
	b := core.NewBuilder()
	read := b.Event("u", "Read", core.Params{})
	req := b.Event("control", "ReqRead", core.Params{})
	other := b.Event("control", "Unrelated", core.Params{})
	b.Enable(read, req)
	b.Enable(req, other)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	insts := Apply(c, rwType())
	if len(insts) != 1 {
		t.Fatalf("got %d instances", len(insts))
	}
	if got := insts[0].Events; !reflect.DeepEqual(got, []core.EventID{read, req}) {
		t.Errorf("thread events = %v, want [read req]", got)
	}
	if c.Event(other).HasThread("piRW#1") {
		t.Error("off-path event must not be labelled")
	}
}

func TestApplyEmptyPathIgnored(t *testing.T) {
	c, _ := rwChain(t)
	insts := Apply(c, Type{Name: "empty"})
	if insts != nil {
		t.Errorf("empty path should produce no instances, got %v", insts)
	}
}

func TestAlternativePathsShareCounter(t *testing.T) {
	// One read chain and one write chain; piRW alternatives share the
	// instance counter, so ids are piRW#1 and piRW#2.
	b := core.NewBuilder()
	read := b.Event("u", "Read", core.Params{})
	reqR := b.Event("control", "ReqRead", core.Params{})
	b.Enable(read, reqR)
	write := b.Event("u", "Write", core.Params{})
	reqW := b.Event("control", "ReqWrite", core.Params{})
	b.Enable(write, reqW)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	readAlt := Type{Name: "piRW", Path: []core.ClassRef{core.Ref("", "Read"), core.Ref("control", "ReqRead")}}
	writeAlt := Type{Name: "piRW", Path: []core.ClassRef{core.Ref("", "Write"), core.Ref("control", "ReqWrite")}}
	insts := Apply(c, readAlt, writeAlt)
	if len(insts) != 2 {
		t.Fatalf("got %d instances", len(insts))
	}
	if insts[0].ID != "piRW#1" || insts[1].ID != "piRW#2" {
		t.Errorf("alternative instances = %s, %s", insts[0].ID, insts[1].ID)
	}
}

func TestValidateAcceptsApplied(t *testing.T) {
	c, _ := rwChain(t)
	Apply(c, rwType())
	if err := Validate(c, rwType()); err != nil {
		t.Errorf("Validate after Apply: %v", err)
	}
}

func TestValidateRejectsForgedLabel(t *testing.T) {
	c, chains := rwChain(t)
	Apply(c, rwType())
	// Forge: put chain 1's identifier on a chain 2 event.
	c.Label(chains[1][3], "piRW#1")
	err := Validate(c, rwType())
	if err == nil || !strings.Contains(err.Error(), "not on that thread's path") {
		t.Errorf("want forged-label error, got %v", err)
	}
}

func TestValidateRejectsMissingLabel(t *testing.T) {
	applied, chains := rwChain(t)
	insts := Apply(applied, rwType())
	// Label a fresh copy as Apply did, but for the middle of chain 1.
	c, _ := rwChain(t)
	for _, inst := range insts {
		for _, id := range inst.Events {
			if id != chains[0][2] {
				c.Label(id, inst.ID)
			}
		}
	}
	err := Validate(c, rwType())
	if err == nil || !strings.Contains(err.Error(), "should carry") {
		t.Errorf("want missing-label error, got %v", err)
	}
}

func TestValidateIgnoresUndeclaredTypes(t *testing.T) {
	c, chains := rwChain(t)
	Apply(c, rwType())
	c.Label(chains[0][0], "other#1")
	if err := Validate(c, rwType()); err != nil {
		t.Errorf("labels of undeclared types must be ignored: %v", err)
	}
}

func TestIDAndTypeOf(t *testing.T) {
	if ID("pi", 7) != "pi#7" {
		t.Errorf("ID = %q", ID("pi", 7))
	}
	if TypeOf("pi#7") != "pi" {
		t.Errorf("TypeOf = %q", TypeOf("pi#7"))
	}
	if TypeOf("bare") != "bare" {
		t.Errorf("TypeOf(bare) = %q", TypeOf("bare"))
	}
}

func TestApplyIdempotentLabels(t *testing.T) {
	c, chains := rwChain(t)
	Apply(c, rwType())
	Apply(c, rwType()) // relabel: identifiers repeat, HasThread dedupes
	ev := c.Event(chains[0][0])
	count := 0
	for k := 0; k < ev.Threads().Len(); k++ {
		if ev.Threads().At(k) == "piRW#1" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d labels piRW#1 after re-Apply, want 1", count)
	}
}
