// Command experiments regenerates the paper's evaluation section (§5):
//
//	experiments fig8       Figure 8: auto + sort-by-hotness vs baseline, 128-way
//	experiments fig9       Figure 9: auto vs baseline, 4-way
//	experiments fig10      Figure 10: best layout per struct, 128-way
//	experiments stability  §4.3: concurrency-map stability across machines
//	experiments robustness fault-severity sweep: layout quality vs corrupted inputs
//	experiments quality    analyze-only sweep calibrating the quality-score thresholds
//	experiments simcheck   validate -sim=sampled against exact on the figure suite
//	experiments all        everything
//	experiments bench      time the pipeline and write BENCH_pipeline.json
//	experiments golint-bench  time the Go-package linter over the corpus
//	                          and write BENCH_golint.json (run from the
//	                          repository root)
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
	"time"

	"structlayout/internal/exec"
	"structlayout/internal/experiments"
	"structlayout/internal/faults"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
)

func main() {
	var (
		runs     = flag.Int("runs", 10, "measured runs per configuration (the paper uses 10)")
		quick    = flag.Bool("quick", false, "3 runs per configuration for a fast look")
		seed     = flag.Int64("seed", 20070311, "base seed")
		inject   = flag.String("inject", "", `fault shape swept by the robustness experiment (default "all=1"); see docs/FAULTS.md`)
		machName = flag.String("machine", "", "measurement machine for the robustness sweep: bus4, way16 or superdome128 (default bus4)")
		jobs     = flag.Int("j", 0, "max parallel measured runs (default GOMAXPROCS)")
		short    = flag.Bool("short", false, "bench: reduced configuration for CI smoke runs")
		benchOut = flag.String("out", "BENCH_pipeline.json", "bench: write the timing report to this file")
		check    = flag.String("check", "", "bench: fail if wall-clock regresses >25% against this baseline report")
		cacheDir = flag.String("cache-dir", "", "persist the measurement cache here; warm re-runs reuse identical measurements")
		simFlag  = flag.String("sim", "", "simulation mode for measured runs: exact (default) or sampled (extrapolated, approximate; collection stays exact)")
	)
	flag.Parse()
	if *jobs > 0 {
		parallel.SetLimit(*jobs)
	}
	if *cacheDir != "" {
		if err := memo.Shared().SetDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	what := flag.Arg(0)
	if what == "" {
		what = "all"
	}
	cfg := experiments.DefaultConfig()
	cfg.Runs = *runs
	if *quick {
		cfg.Runs = 3
	}
	cfg.BaseSeed = *seed
	simMode, err := exec.ParseSimMode(*simFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg.Sim = exec.SimConfig{Mode: simMode}
	var spec *faults.Spec
	if *inject != "" {
		var err error
		spec, err = faults.ParseSpec(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	var topo *machine.Topology
	if *machName != "" {
		var err error
		topo, err = machine.ByName(*machName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}

	switch what {
	case "bench":
		err = runBench(cfg, *short, *benchOut, *check)
	case "golint-bench":
		out := *benchOut
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
		})
		if !outSet {
			out = "BENCH_golint.json"
		}
		err = runGoLintBench(out, *check)
	case "quality":
		err = runQuality(cfg, spec)
	case "simcheck":
		err = runSimCheck(cfg)
	default:
		err = run(what, cfg, spec, topo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runSimCheck validates -sim=sampled differentially against exact on the
// full figure suite, asserting the documented error bound (CI runs this
// in the bench-smoke job).
func runSimCheck(cfg experiments.Config) error {
	start := time.Now()
	res, err := experiments.SimCheck(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res)
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return res.Err()
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
		return fmt.Errorf("unknown experiment %q (want fig8, fig9, fig10, stability, predict, robustness, quality, simcheck or all)", what)
	}
	if err := j.fn(); err != nil {
		return err
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
