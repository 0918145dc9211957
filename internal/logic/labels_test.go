package logic

import (
	"reflect"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/thread"
)

// TestThreadLabelsReadBack checks that the labels thread.Apply adds are
// the labels every reader sees: the thread quantifiers' domain, the
// OnThread atom through HasThread, and the fingerprint, which must match
// that of the same computation labelled before Build in another order.
// Two types label the events: the write type's single instance comes
// first in labelling order but last by event id, and Instances must
// list it last.
func TestThreadLabelsReadBack(t *testing.T) {
	types := []thread.Type{
		{Name: "piW", Path: []core.ClassRef{core.Ref("", "Write"), core.Ref("ctl", "Done")}},
		{Name: "piR", Path: []core.ClassRef{core.Ref("", "Read"), core.Ref("ctl", "Done")}},
	}
	build := func(label func(b *core.Builder, ids []core.EventID)) (*core.Computation, []core.EventID) {
		b := core.NewBuilder()
		ids := []core.EventID{
			b.Event("u1", "Read", core.Params{}),
			b.Event("u2", "Read", core.Params{}),
			b.Event("u3", "Write", core.Params{}),
			b.Event("ctl", "Done", core.Params{}),
		}
		for _, src := range ids[:3] {
			b.Enable(src, ids[3])
		}
		if label != nil {
			label(b, ids)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c, ids
	}
	c, ids := build(nil)
	insts := thread.Apply(c, types...)
	if len(insts) != 3 {
		t.Fatalf("%d instances, want 3", len(insts))
	}

	env := NewEnv(history.Full(c))
	if got, want := threadDomain(env, "piR"), []string{"piR#1", "piR#2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("piR domain = %v, want %v", got, want)
	}
	if got, want := threadDomain(env, "piW"), []string{"piW#1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("piW domain = %v, want %v", got, want)
	}
	if got, want := c.Instances(), []string{"piR#1", "piR#2", "piW#1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("instances = %v, want %v (first appearance by event id)", got, want)
	}
	done := ids[3]
	for _, inst := range insts {
		for _, id := range inst.Events {
			onThread := OnThread{X: "e", T: "t"}
			if !onThread.Eval(env.bind("e", id).bindThread("t", inst.ID)) {
				t.Errorf("%s is not on %s", c.Event(id).Name(), inst.ID)
			}
		}
		if !c.Event(done).HasThread(inst.ID) {
			t.Errorf("the shared Done event lacks %s", inst.ID)
		}
	}
	if c.Event(ids[0]).HasThread("piR#2") {
		t.Error("u1's Read carries u2's instance")
	}

	// The same labels given before Build, in another order, fingerprint
	// alike; no labels fingerprint apart.
	prelabelled, _ := build(func(b *core.Builder, ids []core.EventID) {
		b.Thread(ids[3], "piR#2")
		b.Thread(ids[3], "piR#1")
		b.Thread(ids[3], "piW#1")
		b.Thread(ids[0], "piR#1")
		b.Thread(ids[1], "piR#2")
		b.Thread(ids[2], "piW#1")
	})
	bare, _ := build(nil)
	if core.Fingerprint(c) != core.Fingerprint(prelabelled) {
		t.Error("labels applied after Build and before it fingerprint differently")
	}
	if core.Fingerprint(c) == core.Fingerprint(bare) {
		t.Error("labels do not reach the fingerprint")
	}
}
