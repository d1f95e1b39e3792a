package workload

import (
	"fmt"

	"structlayout/internal/exec"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
	"structlayout/internal/stats"
)

// Collection-time sampling parameters. The paper samples every 100k cycles
// and buckets into 1 ms slices on runs lasting minutes; our simulated runs
// last tens of milliseconds, so both knobs scale down by ~10x, preserving
// the paper's ~12 samples per slice per CPU.
const (
	// CollectSampleInterval is the PMU sampling period in cycles.
	CollectSampleInterval = 2_500
	// CollectSliceCycles is the CodeConcurrency interval length in cycles.
	CollectSliceCycles = 125_000
)

// Layouts maps struct labels ("A".."E") to layouts. Missing labels fall
// back to the baseline layout.
type Layouts map[string]*layout.Layout

// BaselineLayouts returns every struct's hand-tuned layout.
func (s *Suite) BaselineLayouts(lineSize int) Layouts {
	out := make(Layouts, len(s.byLabel))
	for label, ks := range s.byLabel {
		out[label] = ks.Baseline(lineSize)
	}
	return out
}

// WithLayout returns a copy of ls with one struct's layout replaced: the
// paper transforms "their layouts individually" (§5.1).
func (ls Layouts) WithLayout(label string, lay *layout.Layout) Layouts {
	out := make(Layouts, len(ls)+1)
	for k, v := range ls {
		out[k] = v
	}
	out[label] = lay
	return out
}

// newRunner assembles an exec.Runner for one measurement run. The suite's
// Sim setting applies to measurement runs only — a run with a collector
// attached (smp != nil) is always exact, because the PMU trace must
// observe every access.
func (s *Suite) newRunner(topo *machine.Topology, ls Layouts, seed int64, smp *sampling.Config) (*exec.Runner, error) {
	sim := s.Sim
	if smp != nil {
		sim = exec.SimConfig{}
	}
	r, err := exec.NewRunner(s.Prog, exec.Config{
		Topo:     topo,
		Cache:    s.Params.Cache,
		Seed:     seed,
		Sampling: smp,
		Sim:      sim,
	})
	if err != nil {
		return nil, err
	}
	lineSize := int(s.Params.Cache.LineSize)
	// Arena addresses depend on definition order; iterate labels in fixed
	// order so identical configurations replay identically.
	for _, label := range Labels() {
		ks := s.byLabel[label]
		lay := ls[label]
		if lay == nil {
			lay = ks.Baseline(lineSize)
		}
		count := ks.ArenaCount
		if ks.Label == "D" && count < topo.NumCPUs() {
			count = topo.NumCPUs() // per-CPU runqueues need one per CPU
		}
		if err := r.DefineArena(lay, count); err != nil {
			return nil, err
		}
	}
	for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
		if err := r.AddThread(cpu, s.EntryFor(cpu), s.ThreadParams(cpu, seed), s.Params.ScriptsPerThread); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// RunOnce executes one run and returns the raw result.
func (s *Suite) RunOnce(topo *machine.Topology, ls Layouts, seed int64, smp *sampling.Config) (*exec.Result, error) {
	r, err := s.newRunner(topo, ls, seed, smp)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Throughput converts a run's outcome to SDET's metric: scripts per hour.
func Throughput(topo *machine.Topology, res *exec.Result) float64 {
	secs := topo.Seconds(res.Cycles)
	if secs <= 0 {
		return 0
	}
	return float64(res.Completed) / secs * 3600
}

// Measurement is the paper's aggregated result of one configuration.
type Measurement struct {
	// Mean is the outlier-trimmed mean throughput in scripts/hour.
	Mean float64
	// Runs holds each run's throughput.
	Runs []float64
}

// SpeedupOver returns the relative performance versus a baseline
// measurement, in percent.
func (m Measurement) SpeedupOver(base Measurement) float64 {
	return stats.SpeedupPercent(m.Mean, base.Mean)
}

// Measure runs the protocol of §5: n measured runs (the paper uses 10
// after a warm-up), outliers removed, mean reported. Seeds vary per run.
//
// The runs execute in parallel up to parallel.Limit(): each run's seed is a
// pure function of its index (never of scheduling), each run owns all its
// simulator state, and throughputs are gathered by run index — so the
// measurement is byte-identical at any worker count.
//
// Measurements are memoized through memo.Shared(): the result is a pure
// function of the arguments plus the suite's parameters, so a repeated
// configuration (the figure loops share baselines and variant cells across
// machines) is simulated once per process — or once ever, with a disk
// cache. Cached results round-trip through JSON losslessly, so hits are
// bit-identical to fresh computation.
func (s *Suite) Measure(topo *machine.Topology, ls Layouts, n int, baseSeed int64) (Measurement, error) {
	if n <= 0 {
		return Measurement{}, fmt.Errorf("workload: need at least one run")
	}
	return s.measureMemo(topo, ls, n, baseSeed, func() (Measurement, error) {
		runs, err := parallel.Map(n, func(i int) (float64, error) {
			res, err := s.RunOnce(topo, ls, baseSeed+int64(i)*1009+1, nil)
			if err != nil {
				return 0, err
			}
			return Throughput(topo, res), nil
		})
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Mean: stats.TrimmedMean(runs), Runs: runs}, nil
	})
}

// Collect performs the tool's data-collection phase (§4): one profiled,
// PMU-sampled run under the baseline layouts on the given collection
// machine (the paper uses a 16-way machine for its experiments).
//
// Collections are memoized like measurements; every hit decodes a fresh
// Profile/Trace pair, so callers that mutate their collection (fault
// injection, sanitizing) never alias cache-held state.
func (s *Suite) Collect(topo *machine.Topology, ls Layouts, seed int64) (*profile.Profile, *sampling.Trace, error) {
	return s.collectMemo(topo, ls, seed, func() (*profile.Profile, *sampling.Trace, error) {
		res, err := s.RunOnce(topo, ls, seed, &sampling.Config{
			IntervalCycles: CollectSampleInterval,
			DriftMaxCycles: 8,
			LossProb:       0.02,
			Seed:           seed + 17,
		})
		if err != nil {
			return nil, nil, err
		}
		return res.Profile, res.Trace, nil
	})
}
