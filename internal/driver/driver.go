// Package driver runs a program together with its run harness, an
// irtext.File: one parsed from the DSL, lowered from Go by gofront, or the
// built-in SDET suite's (workload.Suite.File). It stands in for the
// build-and-run harness around the paper's tool: given the file (program
// plus arena and thread declarations), it performs the collection phase
// (profiled, PMU-sampled run) and evaluation runs under arbitrary layouts,
// and configures the analysis of a collection.
package driver

import (
	"context"
	"fmt"
	"sort"

	"structlayout/internal/coherence"
	"structlayout/internal/core"
	"structlayout/internal/exec"
	"structlayout/internal/faults"
	"structlayout/internal/fieldmap"
	"structlayout/internal/flg"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/quality"
	"structlayout/internal/sampling"
	"structlayout/internal/staticshare"
	"structlayout/internal/workload"
)

// Config parameterizes runs of a parsed file.
type Config struct {
	// Topo is the machine to run on.
	Topo *machine.Topology
	// Cache is the per-CPU cache geometry (default: the Itanium 6 MB).
	Cache coherence.Config
	// Seed drives branches, random memory patterns and sampling.
	Seed int64
	// Inject, when non-nil, applies the measurement-fault spec to every
	// collection this config produces (profile and trace), so -inject is
	// honored on the DSL/driver path exactly as on the built-in workload.
	Inject *faults.Spec
}

func (c *Config) fillDefaults() {
	if c.Cache.LineSize == 0 {
		c.Cache = coherence.DefaultItanium()
	}
}

// LineSize returns the coherence-line size runs will use.
func (c Config) LineSize() int {
	if c.Cache.LineSize == 0 {
		return int(coherence.DefaultItanium().LineSize)
	}
	return int(c.Cache.LineSize)
}

// AnalysisOptions configures the analysis of a collection of f that ran
// for cycles: the field mapping file through the fault spec's damage, the
// calibrated FLG weights, the static sharing pass over f's harness, and
// about 64 concurrency slices over the run (the default slice length when
// cycles is 0, as for a supplied profile).
func AnalysisOptions(f *irtext.File, lineSize int, cycles int64, spec *faults.Spec, strict bool) core.Options {
	sc := staticshare.FileConfig(f)
	opts := core.Options{
		LineSize: lineSize,
		Strict:   strict,
		FMF:      spec.ApplyFMF(fieldmap.Build(f.Prog), f.Prog),
		FLG:      flg.Calibrated(),
		Static:   &sc,
	}
	if cycles > 0 {
		opts.SliceCycles = cycles/64 + 1
	}
	return opts
}

// OriginalLayouts materializes declaration-order layouts for every declared
// arena.
func OriginalLayouts(f *irtext.File, lineSize int) (map[string]*layout.Layout, error) {
	out := make(map[string]*layout.Layout, len(f.Arenas))
	for name := range f.Arenas {
		l, err := layout.Original(f.Prog.Struct(name), lineSize)
		if err != nil {
			return nil, err
		}
		out[name] = l
	}
	return out, nil
}

// Run executes the file's declared threads under the given layouts (keyed
// by struct name; missing structs get their declaration-order layout),
// with no collector attached.
func Run(f *irtext.File, cfg Config, layouts map[string]*layout.Layout) (*exec.Result, error) {
	return runWith(f, cfg, layouts, nil)
}

// runWith is Run with a PMU collector attached when smp is non-nil.
func runWith(f *irtext.File, cfg Config, layouts map[string]*layout.Layout, smp *sampling.Config) (*exec.Result, error) {
	cfg.fillDefaults()
	if cfg.Topo == nil {
		return nil, fmt.Errorf("driver: nil topology")
	}
	if len(f.Threads) == 0 {
		return nil, fmt.Errorf("driver: program %s declares no threads", f.Prog.Name)
	}
	r, err := workload.NewRunner(f, exec.Config{
		Topo:     cfg.Topo,
		Cache:    cfg.Cache,
		Seed:     cfg.Seed,
		Sampling: smp,
	}, layouts)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Collect performs the tool's data-collection phase for a parsed file:
// one run under declaration-order (or provided) layouts, sampled by
// workload.CollectSampling(cfg.Seed). When the config carries a fault
// spec, the collected profile and trace come back already faulted: the
// injectors model measurement error, so they sit on the collection
// boundary, and the simulated run itself is never perturbed.
func Collect(f *irtext.File, cfg Config, layouts map[string]*layout.Layout) (*exec.Result, error) {
	smp := workload.CollectSampling(cfg.Seed)
	res, err := runWith(f, cfg, layouts, &smp)
	if err != nil {
		return nil, err
	}
	res.Profile = cfg.Inject.ApplyProfile(res.Profile)
	res.Trace = cfg.Inject.ApplyTrace(res.Trace)
	return res, nil
}

// MeasureCtx runs the file n times under the layouts and aggregates
// throughput with the paper's protocol (workload.MeasureRuns): outliers
// removed, trimmed mean reported, in completed top-level iterations per
// virtual hour. Run i's seed is parallel.SeedFor(cfg.Seed, i, "driver",
// program name), a pure function of the run index, so the measurement is
// byte-identical at any -j. Fault specs never apply here: -inject models
// measurement error in the collected data, not in the program under test.
// Measurements memoize through workload.MeasureMemo, keyed by
// workload.MeasureKey over the file as irtext.Format prints it, the
// machine, cache, seed, layouts and run count; repeated cells — the
// multi-struct evaluation loop re-measures its baseline per struct variant
// set, warm disk caches span processes — replay instead of re-simulating.
//
// A cancelled or timed-out ctx stops dequeuing remaining runs (runs
// already simulating finish — a single run is never interrupted
// mid-simulation) and returns ctx's error. A cancelled measurement is
// never cached.
func MeasureCtx(ctx context.Context, f *irtext.File, cfg Config, layouts map[string]*layout.Layout, n int) (workload.Measurement, error) {
	cfg.fillDefaults()
	run := func(ctx context.Context, i int) (float64, error) {
		rcfg := cfg
		rcfg.Seed = parallel.SeedFor(cfg.Seed, i, "driver", f.Prog.Name)
		res, err := Run(f, rcfg, layouts)
		if err != nil {
			return 0, err
		}
		return workload.Throughput(cfg.Topo, res), nil
	}
	k, ok := workload.MeasureKey("driver.measure", f, cfg.Topo, cfg.Cache, cfg.Seed, layouts, n)
	if !ok {
		return workload.MeasureRuns(ctx, n, run)
	}
	return workload.MeasureMemo(ctx, k, n, run)
}

// StructEval is one struct's outcome when its variant layout is applied
// alone over the base layouts.
type StructEval struct {
	Struct     string  `json:"struct"`
	Mean       float64 `json:"mean"`
	SpeedupPct float64 `json:"speedup_pct"`
}

// EvalResult is the multi-struct evaluation table for one machine.
type EvalResult struct {
	Baseline workload.Measurement
	Structs  []StructEval
	// Quality carries the measurement-quality assessment of the collection
	// the variant layouts derive from, so the table states how trustworthy
	// the advice it evaluates was.
	Quality *quality.Assessment
}

// EvaluateCtx is the driver's multi-struct measurement loop — the §5.1
// protocol for DSL programs: measure the file under the base layouts, then
// re-measure with each struct's variant applied individually. The baseline
// and every struct cell are independent measurements, so they fan out over
// the worker pool; rows assemble in sorted struct order, keeping the table
// byte-identical at any -j. q, when non-nil, is the quality assessment of
// the collection that produced the variants; it is attached to the result
// and rendered alongside the table. Cancellation stops dequeuing both
// whole measurement cells and the runs inside each cell (see MeasureCtx),
// so a timed-out caller stops consuming workers at the next run boundary
// instead of measuring the full table to completion.
func EvaluateCtx(ctx context.Context, f *irtext.File, cfg Config, base, variants map[string]*layout.Layout, runs int, q *quality.Assessment) (*EvalResult, error) {
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	// Item 0 is the shared baseline measurement; items 1.. the struct cells.
	ms, err := parallel.MapCtx(ctx, len(names)+1, func(ctx context.Context, i int) (workload.Measurement, error) {
		if i == 0 {
			return MeasureCtx(ctx, f, cfg, base, runs)
		}
		name := names[i-1]
		overlay := make(map[string]*layout.Layout, len(base)+1)
		for k, v := range base {
			overlay[k] = v
		}
		overlay[name] = variants[name]
		m, err := MeasureCtx(ctx, f, cfg, overlay, runs)
		if err != nil {
			return m, fmt.Errorf("driver: measuring %s: %w", name, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	res := &EvalResult{Baseline: ms[0], Quality: q}
	for i, name := range names {
		res.Structs = append(res.Structs, StructEval{Struct: name, Mean: ms[i+1].Mean, SpeedupPct: ms[i+1].SpeedupOver(ms[0])})
	}
	return res, nil
}

// String renders the evaluation as a small table.
func (r *EvalResult) String() string {
	s := fmt.Sprintf("baseline %.0f iterations/hour\n", r.Baseline.Mean)
	for _, se := range r.Structs {
		s += fmt.Sprintf("  struct %-12s %+0.2f%%\n", se.Struct, se.SpeedupPct)
	}
	if r.Quality != nil {
		s += fmt.Sprintf("  collection quality: %s\n", r.Quality)
	}
	return s
}

// ValidateThreads checks the declarations against a machine: duplicate
// CPUs and out-of-range CPUs that would silently never run.
func ValidateThreads(f *irtext.File, topo *machine.Topology) error {
	seen := make(map[int]bool)
	runnable := 0
	for _, td := range f.Threads {
		if td.CPU < 0 {
			return fmt.Errorf("driver: thread on negative cpu %d", td.CPU)
		}
		if seen[td.CPU] {
			return fmt.Errorf("driver: duplicate thread on cpu %d", td.CPU)
		}
		seen[td.CPU] = true
		if td.CPU < topo.NumCPUs() {
			runnable++
		}
	}
	if runnable == 0 {
		return fmt.Errorf("driver: no declared thread fits on %s (%d CPUs)", topo.Name, topo.NumCPUs())
	}
	return nil
}
