// Command experiments regenerates the paper's evaluation section (§5):
//
//	experiments fig8       Figure 8: auto + sort-by-hotness vs baseline, 128-way
//	experiments fig9       Figure 9: auto vs baseline, 4-way
//	experiments fig10      Figure 10: best layout per struct, 128-way
//	experiments stability  §4.3: concurrency-map stability across machines
//	experiments robustness fault-severity sweep: layout quality vs corrupted inputs
//	experiments quality    analyze-only sweep calibrating the quality-score thresholds
//	experiments all        everything
//	experiments bench      time the pipeline
//	experiments golint-bench  time the Go-package linter over the corpus
//	                          (run from the repository root)
//
// Both benchmarks write their report only to an explicit -out file and
// gate against an explicit -check baseline; an -out naming the -check
// file is a usage error, so a run never overwrites the baseline it is
// gated against.
//
// Flags go before the experiment name. An argument after it, or a flag the
// chosen experiment never reads, is a usage error (exit 2). -j is read by
// every experiment, and -cache-dir by every one but golint-bench, which
// times a private cache of its own. bench rejects -cache-dir together with
// -check: its gated parallel pass would replay the disk entries the
// serial pass had just written, a warm run gated against a cold baseline.
//
// Measured runs fan out over a worker pool (-j, default GOMAXPROCS); every
// figure is byte-identical at any -j because seeds derive from run indices
// and results gather by index.
//
// The absolute throughputs come from the machine simulator, not an HP
// Superdome, so only the shape of each figure — who wins, by roughly what
// factor, where the crossovers fall — is expected to match the paper.
// EXPERIMENTS.md records the paper-versus-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"structlayout/internal/experiments"
	"structlayout/internal/faults"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
)

// options holds the parsed command line.
type options struct {
	runs     *int
	quick    *bool
	seed     *int64
	inject   *string
	machName *string
	jobs     *int
	short    *bool
	benchOut *string
	check    *string
	cacheDir *string
}

// defineFlags registers the command line on fs.
func defineFlags(fs *flag.FlagSet) *options {
	return &options{
		runs:     fs.Int("runs", 10, "measured runs per configuration (the paper uses 10)"),
		quick:    fs.Bool("quick", false, "3 runs per configuration for a fast look"),
		seed:     fs.Int64("seed", 20070311, "base seed"),
		inject:   fs.String("inject", "", `fault shape swept by the robustness experiment (default "all=1"); see docs/FAULTS.md`),
		machName: fs.String("machine", "", "measurement machine for the robustness sweep: bus4, way16 or superdome128 (default bus4)"),
		jobs:     fs.Int("j", 0, "max parallel measured runs (default GOMAXPROCS)"),
		short:    fs.Bool("short", false, "bench: reduced configuration for CI smoke runs"),
		benchOut: fs.String("out", "", "bench, golint-bench: write the timing report to this file (never the -check baseline)"),
		check:    fs.String("check", "", "bench: fail if wall-clock regresses >25% against this baseline report"),
		cacheDir: fs.String("cache-dir", "", "persist the measurement cache here; warm re-runs reuse identical measurements (not golint-bench, nor bench with -check)"),
	}
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	what := flag.Arg(0)
	if what == "" {
		what = "all"
	}
	if msgs := usageErrors(flag.CommandLine, what); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "experiments:", m)
		}
		os.Exit(2)
	}
	if *o.jobs > 0 {
		parallel.SetLimit(*o.jobs)
	}
	if *o.cacheDir != "" {
		if err := memo.Shared().SetDir(*o.cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	cfg := experiments.DefaultConfig()
	cfg.Runs = *o.runs
	if *o.quick {
		cfg.Runs = 3
	}
	cfg.BaseSeed = *o.seed
	var spec *faults.Spec
	if *o.inject != "" {
		var err error
		spec, err = faults.ParseSpec(*o.inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	var topo *machine.Topology
	if *o.machName != "" {
		var err error
		topo, err = machine.ByName(*o.machName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}

	var err error
	switch what {
	case "bench":
		err = runBench(cfg, *o.short, *o.benchOut, *o.check)
	case "golint-bench":
		err = runGoLintBench(*o.benchOut, *o.check)
	case "quality":
		err = runQuality(cfg, spec)
	default:
		err = run(what, cfg, spec, topo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experimentFlags lists the flags each experiment reads; -j is read by
// every experiment.
var experimentFlags = map[string]string{
	"fig8":         "runs quick seed cache-dir",
	"fig9":         "runs quick seed cache-dir",
	"fig10":        "runs quick seed cache-dir",
	"stability":    "seed cache-dir",
	"predict":      "seed cache-dir",
	"robustness":   "runs quick seed inject machine cache-dir",
	"all":          "runs quick seed inject machine cache-dir",
	"quality":      "seed inject cache-dir",
	"bench":        "runs quick seed short out check cache-dir",
	"golint-bench": "out check",
}

// experimentNames lists every experiment, sorted, for usage messages.
func experimentNames() string {
	names := make([]string, 0, len(experimentFlags))
	for name := range experimentFlags {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// usageErrors names an unknown experiment, every argument after the
// experiment and every flag set on fs that experiment what never reads, so
// nothing on the command line is silently ignored and no work starts on a
// command line that would fail.
func usageErrors(fs *flag.FlagSet, what string) []string {
	names, ok := experimentFlags[what]
	if !ok {
		return []string{fmt.Sprintf("unknown experiment %q (want %s)", what, experimentNames())}
	}
	var msgs []string
	for _, arg := range fs.Args()[min(1, fs.NArg()):] {
		msgs = append(msgs, fmt.Sprintf("unexpected argument %q after %s (flags go before the experiment name)", arg, what))
	}
	reads := map[string]bool{"j": true}
	for _, name := range strings.Fields(names) {
		reads[name] = true
	}
	// -quick fixes the run count at 3, and bench's -short at 2.
	on := func(name string) bool { return fs.Lookup(name).Value.String() == "true" }
	overriddenBy := map[string]string{}
	if on("quick") {
		overriddenBy["runs"] = "quick"
	}
	if what == "bench" && on("short") {
		overriddenBy["runs"], overriddenBy["quick"] = "short", "short"
	}
	fs.Visit(func(f *flag.Flag) {
		switch {
		case !reads[f.Name]:
			msgs = append(msgs, fmt.Sprintf("-%s is not read by %s", f.Name, what))
		case overriddenBy[f.Name] != "":
			msgs = append(msgs, fmt.Sprintf("-%s is overridden by -%s", f.Name, overriddenBy[f.Name]))
		}
	})
	out, check := fs.Lookup("out").Value.String(), fs.Lookup("check").Value.String()
	if out != "" && check != "" && sameFile(out, check) {
		msgs = append(msgs, fmt.Sprintf("-out %s would overwrite the -check baseline", out))
	}
	if what == "bench" && check != "" && fs.Lookup("cache-dir").Value.String() != "" {
		msgs = append(msgs, "-cache-dir with -check would gate a replay of the serial pass, not a cold run")
	}
	return msgs
}

// sameFile reports whether two paths name one file: equal once cleaned,
// or, when both exist, the same file on disk.
func sameFile(a, b string) bool {
	if filepath.Clean(a) == filepath.Clean(b) {
		return true
	}
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(ia, ib)
}

// runQuality prints the analyze-only calibration sweep behind the quality
// thresholds: a denser severity grid than the robustness table, skipping
// the throughput measurements, so re-running while tuning is cheap.
func runQuality(cfg experiments.Config, spec *faults.Spec) error {
	start := time.Now()
	severities := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.75, 0.9}
	points, err := experiments.QualityCalibration(cfg, spec, severities)
	if err != nil {
		return err
	}
	fmt.Print(experiments.QualityReport(points))
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// run prints one experiment, or all of them in order. Only the
// experiments that read the shared collection and analysis build it.
func run(what string, cfg experiments.Config, spec *faults.Spec, topo *machine.Topology) error {
	start := time.Now()
	var p *experiments.Pipeline
	type job struct {
		name     string
		pipeline bool // reads p
		fn       func() (any, error)
	}
	jobs := map[string]job{
		"fig8":      {"Figure 8", true, func() (any, error) { return p.Fig8() }},
		"fig9":      {"Figure 9", true, func() (any, error) { return p.Fig9() }},
		"fig10":     {"Figure 10", true, func() (any, error) { return p.Fig10() }},
		"stability": {"Concurrency stability", true, func() (any, error) { return p.ConcurrencyStability(20) }},
		"predict": {"Prediction accuracy", true, func() (any, error) {
			rows, err := p.PredictionAccuracy()
			if err != nil {
				return nil, err
			}
			return experiments.PredictionReport(rows), nil
		}},
		"robustness": {"Fault robustness", false, func() (any, error) {
			return experiments.Robustness(cfg, spec, nil, topo)
		}},
	}
	order := []string{what}
	if what == "all" {
		order = []string{"fig8", "fig9", "fig10", "stability", "predict", "robustness"}
	}
	needPipeline := false
	for _, k := range order {
		j, ok := jobs[k]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want %s)", what, experimentNames())
		}
		needPipeline = needPipeline || j.pipeline
	}
	if needPipeline {
		fmt.Printf("collection phase on %s...\n", cfg.CollectTopo.Name)
		var err error
		if p, err = experiments.NewPipeline(cfg); err != nil {
			return err
		}
		fmt.Printf("pipeline ready in %v (%d runs per configuration)\n\n", time.Since(start).Round(time.Millisecond), cfg.Runs)
	}
	for _, k := range order {
		out, err := jobs[k].fn()
		if err != nil {
			if what == "all" {
				return fmt.Errorf("%s: %w", jobs[k].name, err)
			}
			return err
		}
		fmt.Println(out)
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
