package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structlayout/internal/experiments"
)

func TestRunFig9Quick(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 1
	if err := run("fig9", cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 1
	if err := run("fig99", cfg, nil, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestBenchCheckRegression exercises the -check gate without running the
// pipeline: a faster run passes, a >25% slower run fails.
func TestBenchCheckRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"runs": 2, "short": true, "total_seconds": 10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ok := &benchReport{Runs: 2, Short: true, TotalSeconds: 11}
	if err := checkRegression(ok, base); err != nil {
		t.Fatalf("10%% slower run rejected: %v", err)
	}
	slow := &benchReport{Runs: 2, Short: true, TotalSeconds: 14}
	if err := checkRegression(slow, base); err == nil {
		t.Fatal("40% regression accepted")
	}
	if err := checkRegression(ok, filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestCheckGatesCountersExactly: under -check each stage's memo hits and
// misses, in the gated and the serial pass, and golint-bench's package
// count must equal the baseline's; a baseline recorded with other runs or
// short settings fails naming both configurations.
func TestCheckGatesCountersExactly(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"runs": 2, "short": true, "total_seconds": 10, "packages": 17,
		"stages": [{"name": "fig10", "seconds": 2, "memo_hits": 6, "memo_misses": 5}],
		"serial_stages": [{"name": "fig10", "seconds": 2, "memo_hits": 6, "memo_misses": 5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	same := []benchStage{{Name: "fig10", Seconds: 2, MemoHits: 6, MemoMisses: 5}}
	moreMisses := []benchStage{{Name: "fig10", Seconds: 2, MemoHits: 6, MemoMisses: 6}}
	fewerHits := []benchStage{{Name: "fig10", Seconds: 2, MemoHits: 5, MemoMisses: 5}}
	run := func(stages, serial []benchStage) *benchReport {
		return &benchReport{Runs: 2, Short: true, TotalSeconds: 10, Stages: stages, SerialStages: serial}
	}
	if err := checkRegression(run(same, same), base); err != nil {
		t.Fatalf("equal counters rejected: %v", err)
	}
	if err := checkGoLintRegression(&golintReport{Packages: 17, Stages: same}, base); err != nil {
		t.Fatalf("equal golint counters rejected: %v", err)
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{checkRegression(run(moreMisses, same), base), "bench: stage fig10 memo hits/misses 6/6, baseline 6/5"},
		{checkRegression(run(same, fewerHits), base), "bench: serial stage fig10 memo hits/misses 5/5, baseline 6/5"},
		{checkGoLintRegression(&golintReport{Packages: 17, Stages: fewerHits}, base), "stage fig10 memo hits/misses 5/5, baseline 6/5"},
		{checkGoLintRegression(&golintReport{Packages: 16, Stages: same}, base), "packages 16, baseline 17"},
		{checkRegression(&benchReport{Runs: 10, TotalSeconds: 10, Stages: same, SerialStages: same}, base),
			"bench: baseline " + base + " ran runs 2, short true; this run ran runs 10, short false"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("got %v, want %q", c.err, c.want)
		}
	}
}

// TestStageMissingOnOneSideFails: a stage the baseline lacks, or a
// baseline stage the run lacks, fails both checks by name, so renaming a
// stage cannot leave it ungated.
func TestStageMissingOnOneSideFails(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"runs": 2, "short": true, "total_seconds": 10,
		"stages": [{"name": "fig8", "seconds": 4}, {"name": "summary-cold", "seconds": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	same := []benchStage{{Name: "fig8", Seconds: 4}, {Name: "summary-cold", Seconds: 2}}
	renamed := []benchStage{{Name: "fig8", Seconds: 4}, {Name: "cold", Seconds: 2}}
	const want = "stage cold is not in the baseline; baseline stage summary-cold did not run"
	if err := checkRegression(&benchReport{Runs: 2, Short: true, TotalSeconds: 10, Stages: same}, base); err != nil {
		t.Fatalf("unchanged stages rejected: %v", err)
	}
	if err := checkGoLintRegression(&golintReport{Stages: same}, base); err != nil {
		t.Fatalf("unchanged golint stages rejected: %v", err)
	}
	err := checkRegression(&benchReport{Runs: 2, Short: true, TotalSeconds: 10, Stages: renamed}, base)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("renamed bench stage: got %v, want an error containing %q", err, want)
	}
	err = checkGoLintRegression(&golintReport{Stages: renamed}, base)
	if err == nil || err.Error() != want {
		t.Errorf("renamed golint stage: got %v, want %q", err, want)
	}
}

// TestUsageErrors: an argument after the experiment name, or a flag the
// experiment never reads, is a usage error naming it, while every
// invocation the README, docs and CI use passes.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args string
		want string // the messages, joined by "; "
	}{
		// Arguments and flags that were silently ignored before.
		{"fig8 -quick", `unexpected argument "-quick" after fig8 (flags go before the experiment name)`},
		{"robustness -inject loss=1,truncate=1", `unexpected argument "-inject" after robustness (flags go before the experiment name); ` +
			`unexpected argument "loss=1,truncate=1" after robustness (flags go before the experiment name)`},
		{"-inject loss=1 fig8", "-inject is not read by fig8"},
		{"-machine way16 -quick stability", "-machine is not read by stability; -quick is not read by stability"},
		{"-short -quick quality", "-quick is not read by quality; -short is not read by quality"},
		{"-seed 3 golint-bench", "-seed is not read by golint-bench"},
		{"-out x.json", "-out is not read by all"},
		{"-quick -runs 5 fig8", "-runs is overridden by -quick"},
		{"-short -runs 5 -quick bench", "-quick is overridden by -short; -runs is overridden by -short"},
		{"-runs 5 fig8", ""},
		{"-quick=false -runs 5 fig8", ""},
		{"-runs 5 bench", ""},
		// A report never overwrites the baseline it is gated against.
		{"-short -check BENCH_pipeline.json -out BENCH_pipeline.json bench", "-out BENCH_pipeline.json would overwrite the -check baseline"},
		{"-short -check BENCH_pipeline.json -out ./BENCH_pipeline.json bench", "-out ./BENCH_pipeline.json would overwrite the -check baseline"},
		{"-check BENCH_golint.json -out BENCH_golint.json golint-bench", "-out BENCH_golint.json would overwrite the -check baseline"},
		{"-short -out BENCH_pipeline.json bench", ""},
		{"-out BENCH_golint.json golint-bench", ""},
		{"-short -check BENCH_pipeline.json bench", ""},
		// golint-bench times a private cache, and a gated bench must run
		// cold: a -cache-dir would be ignored or void the gate.
		{"-cache-dir /tmp/golintcache golint-bench", "-cache-dir is not read by golint-bench"},
		{"-short -cache-dir /tmp/memocache -check BENCH_pipeline.json bench", "-cache-dir with -check would gate a replay of the serial pass, not a cold run"},
		// Invocations the README, docs and CI use.
		{"", ""},
		{"all", ""},
		{"-j 8 all", ""},
		{"-quick all", ""},
		{"-quick fig8", ""},
		{"fig9", ""},
		{"fig10", ""},
		{"predict", ""},
		{"quality", ""},
		{"robustness", ""},
		{"-quick robustness", ""},
		{"-inject loss=1,truncate=1 robustness", ""},
		{"-machine superdome128 robustness", ""},
		{"-quick -machine superdome128 robustness", ""},
		{"bench", ""},
		{"-short bench", ""},
		{"-short -out /tmp/bench_cold.json -check BENCH_pipeline.json bench", ""},
		{"-short -cache-dir /tmp/memocache bench", ""},
		{"-short -cache-dir /tmp/memocache -out /tmp/bench_warm.json bench", ""},
		{"-quick -j 1 -cache-dir /tmp/figcache fig8", ""},
		{"-quick -j 8 -cache-dir /tmp/figcache fig8", ""},
		{"golint-bench", ""},
		{"-out /tmp/bench_golint.json -check BENCH_golint.json golint-bench", ""},
		// An unknown experiment is rejected before any work, alone.
		{"fig99", `unknown experiment "fig99" (want all, bench, fig10, fig8, fig9, golint-bench, predict, quality, robustness, stability)`},
		{"-inject loss=1 fig99 extra", `unknown experiment "fig99" (want all, bench, fig10, fig8, fig9, golint-bench, predict, quality, robustness, stability)`},
	}
	// Every flag is read by some experiment, or no invocation could set it.
	read := map[string]bool{"j": true}
	for _, names := range experimentFlags {
		for _, name := range strings.Fields(names) {
			read[name] = true
		}
	}
	all := flag.NewFlagSet("experiments", flag.ContinueOnError)
	defineFlags(all)
	all.VisitAll(func(f *flag.Flag) {
		if !read[f.Name] {
			t.Errorf("-%s is read by no experiment", f.Name)
		}
	})
	for _, c := range cases {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		defineFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		what := fs.Arg(0)
		if what == "" {
			what = "all"
		}
		if got := strings.Join(usageErrors(fs, what), "; "); got != c.want {
			t.Errorf("%q: usage errors %q, want %q", c.args, got, c.want)
		}
	}
	// The removed simulation-mode switch is an unknown flag.
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs)
	if err := fs.Parse([]string{"-sim", "exact", "fig8"}); err == nil {
		t.Error("-sim parsed as a flag")
	}
}
