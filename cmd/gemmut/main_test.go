package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gem/internal/cli/clitest"
)

// TestReportIdenticalAcrossParallelism: a fixed-seed campaign prints
// the same report, byte for byte, on one worker and on two.
func TestReportIdenticalAcrossParallelism(t *testing.T) {
	var reports []string
	for _, j := range []string{"1", "2"} {
		var out bytes.Buffer
		if err := run([]string{"-n", "200", "-seed", "7", "-cache", "off", "-j", j}, &out, io.Discard); err != nil {
			t.Fatalf("gemmut -j %s: %v\n%s", j, err, out.String())
		}
		if !strings.Contains(out.String(), "findings: none") {
			t.Fatalf("gemmut -j %s reported findings:\n%s", j, out.String())
		}
		reports = append(reports, out.String())
	}
	if reports[0] != reports[1] {
		t.Errorf("reports differ:\n--- -j 1 ---\n%s\n--- -j 2 ---\n%s", reports[0], reports[1])
	}
}

// TestUsageErrors: a positional argument and malformed flags fail
// before any work. -n below 1 is refused: mutate.Config would read it as
// its default and run 2,000 mutants.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "off", "extra"},
		{"-n", "many"},
		{"-cache", "sometimes"},
		{"-n", "0", "-cache", "off"},
		{"-n", "-5", "-cache", "off"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("gemmut %v must fail", args)
		}
	}
}

// TestBudgetInterrupts: an exhausted -budget stops the campaign with
// the partial-results error and prints no report.
func TestBudgetInterrupts(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "200", "-budget", "1ns", "-cache", "off"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "interrupted (partial results)") {
		t.Fatalf("gemmut -budget 1ns = %v, want an interrupted (partial results) error", err)
	}
	if out.Len() != 0 {
		t.Errorf("an interrupted campaign printed a report:\n%s", out.String())
	}
}

// TestReplayUnknownCampaign: replaying a campaign the store has no
// manifest for is an error, not an empty success.
func TestReplayUnknownCampaign(t *testing.T) {
	err := run([]string{"-cache", "rw", "-cache-dir", t.TempDir(), "-replay", "no-such-campaign"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no-such-campaign") {
		t.Fatalf("gemmut -replay no-such-campaign = %v, want an error naming the campaign", err)
	}
}

// TestFlagSurface pins gemmut's flags and their defaults.
func TestFlagSurface(t *testing.T) {
	var usage strings.Builder
	run([]string{"-h"}, io.Discard, &usage)
	want := `-budget=
-cache=rw
-cache-dir=
-cpuprofile=
-j=NumCPU
-memprofile=
-n=2000
-name=gemmut
-replay=
-seed=
-stats=
-trace=
-v=`
	if got := clitest.Surface(usage.String()); got != want {
		t.Errorf("flags:\n%s\nwant:\n%s", got, want)
	}
}
