package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func buildTwoEventComp(t *testing.T) *Computation {
	t.Helper()
	b := NewBuilder()
	a := b.Event("e", "A", Params{})
	c := b.Event("e", "B", Params{})
	b.Enable(a, c)
	comp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestDerivedSingleBuild pins Derived's single-build semantics under
// concurrent callers (run under -race by scripts/ci.sh): for each key
// the build function runs exactly once, every caller observes the value
// that build returned, and no caller observes a partially built value.
// The slow build forces real overlap — all goroutines are in flight
// before the first build finishes.
func TestDerivedSingleBuild(t *testing.T) {
	comp := buildTwoEventComp(t)
	const (
		goroutines = 32
		keys       = 4
	)
	var builds [keys]atomic.Int64
	var start, done sync.WaitGroup
	results := make([][]any, keys)
	for k := range results {
		results[k] = make([]any, goroutines)
	}
	start.Add(goroutines * keys)
	done.Add(goroutines * keys)
	for k := 0; k < keys; k++ {
		k := k
		key := string(rune('a' + k))
		for g := 0; g < goroutines; g++ {
			g := g
			go func() {
				start.Done()
				start.Wait() // maximize overlap
				v := comp.Derived(key, func() any {
					builds[k].Add(1)
					time.Sleep(2 * time.Millisecond)
					return &struct{ key string }{key}
				})
				results[k][g] = v
				done.Done()
			}()
		}
	}
	done.Wait()
	for k := 0; k < keys; k++ {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d: build ran %d times, want exactly 1", k, n)
		}
		for g := 1; g < goroutines; g++ {
			if results[k][g] != results[k][0] {
				t.Errorf("key %d: caller %d observed a different value than caller 0", k, g)
			}
		}
	}
}

// A second computation must not share derived values with the first:
// the cache is per-computation, keyed only within it.
func TestDerivedPerComputation(t *testing.T) {
	c1 := buildTwoEventComp(t)
	c2 := buildTwoEventComp(t)
	v1 := c1.Derived("k", func() any { return new(int) })
	v2 := c2.Derived("k", func() any { return new(int) })
	if v1 == v2 {
		t.Error("two computations shared one derived value")
	}
}
