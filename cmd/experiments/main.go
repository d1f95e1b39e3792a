// Command experiments regenerates the paper's evaluation section (§5):
//
//	experiments fig8       Figure 8: auto + sort-by-hotness vs baseline, 128-way
//	experiments fig9       Figure 9: auto vs baseline, 4-way
//	experiments fig10      Figure 10: best layout per struct, 128-way
//	experiments stability  §4.3: concurrency-map stability across machines
//	experiments robustness fault-severity sweep: layout quality vs corrupted inputs
//	experiments quality    analyze-only sweep calibrating the quality-score thresholds
//	experiments all        everything
//	experiments bench      time the pipeline and write BENCH_pipeline.json
//	experiments golint-bench  time the Go-package linter over the corpus
//	                          and write BENCH_golint.json (run from the
//	                          repository root)
//
// Flags go before the experiment name. An argument after it, or a flag the
// chosen experiment never reads, is a usage error (exit 2); -j and
// -cache-dir are read by every experiment.
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
		benchOut: fs.String("out", "BENCH_pipeline.json", "bench: write the timing report to this file"),
		check:    fs.String("check", "", "bench: fail if wall-clock regresses >25% against this baseline report"),
		cacheDir: fs.String("cache-dir", "", "persist the measurement cache here; warm re-runs reuse identical measurements"),
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
		out := *o.benchOut
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
		})
		if !outSet {
			out = "BENCH_golint.json"
		}
		err = runGoLintBench(out, *o.check)
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

// experimentFlags lists the flags each experiment reads; -j and
// -cache-dir are read by every experiment.
var experimentFlags = map[string]string{
	"fig8":         "runs quick seed",
	"fig9":         "runs quick seed",
	"fig10":        "runs quick seed",
	"stability":    "seed",
	"predict":      "seed",
	"robustness":   "runs quick seed inject machine",
	"all":          "runs quick seed inject machine",
	"quality":      "seed inject",
	"bench":        "runs quick seed short out check",
	"golint-bench": "out check",
}

// usageErrors names every argument after the experiment and every flag set
// on fs that experiment what never reads, so nothing on the command line
// is silently ignored. An unknown experiment is left to run's error.
func usageErrors(fs *flag.FlagSet, what string) []string {
	var msgs []string
	for _, arg := range fs.Args()[min(1, fs.NArg()):] {
		msgs = append(msgs, fmt.Sprintf("unexpected argument %q after %s (flags go before the experiment name)", arg, what))
	}
	names, ok := experimentFlags[what]
	if !ok {
		return msgs
	}
	reads := map[string]bool{"j": true, "cache-dir": true}
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
	return msgs
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

func run(what string, cfg experiments.Config, spec *faults.Spec, topo *machine.Topology) error {
	start := time.Now()
	fmt.Printf("collection phase on %s...\n", cfg.CollectTopo.Name)
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("pipeline ready in %v (%d runs per configuration)\n\n", time.Since(start).Round(time.Millisecond), cfg.Runs)

	type job struct {
		name string
		fn   func() error
	}
	jobs := map[string]job{
		"fig8": {"Figure 8", func() error {
			f, err := p.Fig8()
			if err != nil {
				return err
			}
			fmt.Println(f)
			return nil
		}},
		"fig9": {"Figure 9", func() error {
			f, err := p.Fig9()
			if err != nil {
				return err
			}
			fmt.Println(f)
			return nil
		}},
		"fig10": {"Figure 10", func() error {
			f, err := p.Fig10()
			if err != nil {
				return err
			}
			fmt.Println(f)
			return nil
		}},
		"stability": {"Concurrency stability", func() error {
			r, err := p.ConcurrencyStability(20)
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		"predict": {"Prediction accuracy", func() error {
			rows, err := p.PredictionAccuracy()
			if err != nil {
				return err
			}
			fmt.Println(experiments.PredictionReport(rows))
			return nil
		}},
		"robustness": {"Fault robustness", func() error {
			r, err := experiments.Robustness(cfg, spec, nil, topo)
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
	}
	order := []string{"fig8", "fig9", "fig10", "stability", "predict", "robustness"}

	if what == "all" {
		for _, k := range order {
			if err := jobs[k].fn(); err != nil {
				return fmt.Errorf("%s: %w", jobs[k].name, err)
			}
		}
		fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	j, ok := jobs[what]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want fig8, fig9, fig10, stability, predict, robustness, quality or all)", what)
	}
	if err := j.fn(); err != nil {
		return err
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
