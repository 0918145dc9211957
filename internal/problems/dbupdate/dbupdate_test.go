package dbupdate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/obs"
)

func stdConfig() Config {
	return Config{Sites: 3, Updates: []Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
}

func TestConvergenceAcrossAllSchedules(t *testing.T) {
	cfg := stdConfig()
	runs, truncated, err := Explore(cfg, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(runs) == 0 {
		t.Fatalf("exploration: %d runs, truncated=%v", len(runs), truncated)
	}
	conv := ConvergenceFormula(cfg)
	for i, r := range runs {
		if !r.Converged {
			t.Fatalf("run %d diverged: finals=%v\n%s", i, r.Finals, r.Comp)
		}
		if cx := logic.HoldsAtFull(conv, r.Comp); cx != nil {
			t.Fatalf("run %d fails the convergence restriction: %v", i, cx.Error())
		}
	}
	t.Logf("all %d schedules converge", len(runs))
}

func TestRunsAreLegal(t *testing.T) {
	cfg := stdConfig()
	s := Spec(cfg)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	runs, _, err := Explore(cfg, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("run %d illegal: %v", i, res.Error())
		}
	}
}

func TestAllUpdatesReachAllSites(t *testing.T) {
	cfg := stdConfig()
	runs, _, err := Explore(cfg, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		// Every site must apply or at least receive every remote update:
		// per channel, exactly one Send and one Recv per update.
		for i := 0; i < cfg.Sites; i++ {
			for j := 0; j < cfg.Sites; j++ {
				if i == j {
					continue
				}
				sends := r.Comp.EventsOf(core.Ref(ChanElement(i, j), "Send"))
				recvs := r.Comp.EventsOf(core.Ref(ChanElement(i, j), "Recv"))
				if len(sends) != len(recvs) {
					t.Fatalf("channel %d->%d: %d sends, %d recvs", i, j, len(sends), len(recvs))
				}
			}
		}
	}
}

func TestLostMessageCausesDivergence(t *testing.T) {
	cfg := stdConfig()
	runs, _, err := Explore(cfg, ExploreOptions{DropLastMessage: true})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, r := range runs {
		// A site that never hears of the winning update either disagrees
		// on its last Apply (formula violation) or has applied nothing at
		// all; the Converged flag covers both.
		if !r.Converged {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("a lost broadcast must cause divergence on some schedule")
	}
}

func TestIgnoringVersionsCausesDivergence(t *testing.T) {
	// Without the version check, two concurrent updates may be applied in
	// different orders at different sites.
	cfg := Config{Sites: 2, Updates: []Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	runs, _, err := Explore(cfg, ExploreOptions{IgnoreVersions: true})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, r := range runs {
		if !r.Converged {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("blind application must diverge on some schedule")
	}
}

func TestWinnerIsVersionMaximal(t *testing.T) {
	// With site 1's clock racing ahead via receipt of site 0's update,
	// later updates get higher timestamps; the final value must carry the
	// maximal (ts, origin) version on every site's last Apply.
	cfg := stdConfig()
	runs, _, err := Explore(cfg, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		// Find the global maximal applied version across sites' Applies.
		var maxTS, maxOrigin, maxVal int64 = -1, -1, 0
		for i := 0; i < cfg.Sites; i++ {
			for _, id := range r.Comp.EventsOf(core.Ref(SiteElement(i), "Apply")) {
				e := r.Comp.Event(id)
				ts, origin := e.Params["ts"].I, e.Params["origin"].I
				if ts > maxTS || (ts == maxTS && origin > maxOrigin) {
					maxTS, maxOrigin, maxVal = ts, origin, e.Params["val"].I
				}
			}
		}
		for i, v := range r.Finals {
			if v != maxVal {
				t.Fatalf("site %d final %d, want version-maximal %d", i, v, maxVal)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := Explore(Config{}, ExploreOptions{}); err == nil {
		t.Error("empty config must be rejected")
	}
	if _, _, err := Explore(Config{Sites: 1}, ExploreOptions{}); err == nil {
		t.Error("no updates must be rejected")
	}
	if _, _, err := Explore(Config{Sites: 1, Updates: []Update{{Site: 5}}}, ExploreOptions{}); err == nil {
		t.Error("out-of-range site must be rejected")
	}
}

func TestSingleSiteTrivial(t *testing.T) {
	cfg := Config{Sites: 1, Updates: []Update{{Site: 0, Value: 3}}}
	runs, _, err := Explore(cfg, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Finals[0] != 3 || !runs[0].Converged {
		t.Fatalf("single-site run wrong: %+v", runs)
	}
}

// TestExplorationBounds: the shared driver's bounds apply to dbupdate
// too — MaxRuns truncates, MaxSteps and a cancelled context are errors.
func TestExplorationBounds(t *testing.T) {
	cfg := stdConfig()
	runs, truncated, err := Explore(cfg, ExploreOptions{Options: explore.Options{MaxRuns: 2}})
	if err != nil || !truncated || len(runs) != 2 {
		t.Fatalf("MaxRuns=2: %d runs, truncated=%v, err=%v", len(runs), truncated, err)
	}
	if _, _, err := Explore(cfg, ExploreOptions{Options: explore.Options{MaxSteps: 3}}); err == nil {
		t.Error("MaxSteps=3 must stop a 6-step schedule")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Explore(cfg, ExploreOptions{Options: explore.Options{Ctx: ctx}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestReductionPreservesComputations is dbupdate's reduction oracle.
// Sleep sets are its only reduction (nothing runs eagerly), so the
// default exploration must emit exactly NoReduction's computations, in
// the same order, while reaching fewer complete schedules. The second
// configuration originates twice at one site, so a broadcast can race
// a delivery on the same channel.
func TestReductionPreservesComputations(t *testing.T) {
	for _, cfg := range []Config{
		stdConfig(),
		{Sites: 2, Updates: []Update{{Site: 0, Value: 7}, {Site: 0, Value: 8}, {Site: 1, Value: 9}}},
	} {
		reductionOracle(t, cfg)
	}
}

func reductionOracle(t *testing.T, cfg Config) {
	explored := func(opts explore.Options) ([]string, int64) {
		obs.Enable()
		defer obs.Disable()
		runs, truncated, err := Explore(cfg, ExploreOptions{Options: opts})
		if err != nil || truncated {
			t.Fatalf("truncated=%v err=%v", truncated, err)
		}
		var out []string
		for _, r := range runs {
			out = append(out, r.Comp.String())
		}
		return out, obs.Snapshot().Counters["explore.leaves"]
	}
	reduced, reducedLeaves := explored(explore.Options{})
	full, fullLeaves := explored(explore.Options{NoReduction: true})
	if strings.Join(reduced, "\n") != strings.Join(full, "\n") {
		t.Fatalf("%+v: reduced emits %d computations, unreduced %d, or in another order", cfg, len(reduced), len(full))
	}
	if reducedLeaves >= fullLeaves {
		t.Errorf("%+v: sleep sets reached %d leaves, unreduced %d: nothing pruned", cfg, reducedLeaves, fullLeaves)
	}
	t.Logf("%+v: %d computations, %d leaves reduced, %d unreduced", cfg, len(full), reducedLeaves, fullLeaves)
}
