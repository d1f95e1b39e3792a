package workload

import (
	"context"

	"structlayout/internal/exec"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
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

// CollectSampling returns the PMU sampling configuration of every
// collection run: the CollectSampleInterval period, a few ticks of drift,
// mild loss, and a sampling seed derived from the run seed.
func CollectSampling(seed int64) sampling.Config {
	return sampling.Config{
		IntervalCycles: CollectSampleInterval,
		DriftMaxCycles: 8,
		LossProb:       0.02,
		Seed:           seed + 17,
	}
}

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

// File states SDET's run harness on one machine as the irtext.File a DSL
// program declares: the five kernel arenas, with D padded to one runqueue
// per CPU, and one script thread per CPU running its stat class's script
// with its parameter vector for ScriptsPerThread iterations.
func (s *Suite) File(topo *machine.Topology) *irtext.File {
	f := &irtext.File{Prog: s.Prog, Arenas: make(map[string]int, len(s.byLabel))}
	for _, ks := range s.byLabel {
		count := ks.ArenaCount
		if ks.Label == "D" && count < topo.NumCPUs() {
			count = topo.NumCPUs() // per-CPU runqueues need one per CPU
		}
		f.Arenas[ks.Type.Name] = count
	}
	for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
		f.Threads = append(f.Threads, irtext.ThreadDecl{
			CPU:    cpu,
			Proc:   s.EntryFor(cpu),
			Params: s.ThreadParams(cpu),
			Iters:  s.Params.ScriptsPerThread,
		})
	}
	return f
}

// NewRunner assembles, but does not start, one run of f's harness: every
// declared arena, a one-instance arena for each struct the program
// accesses without declaring one, and every declared thread whose CPU
// cfg.Topo has (so one file can target several machine sizes). layouts is
// keyed by struct name; a struct it lacks gets its declaration-order
// layout.
func NewRunner(f *irtext.File, cfg exec.Config, layouts map[string]*layout.Layout) (*exec.Runner, error) {
	r, err := exec.NewRunner(f.Prog, cfg)
	if err != nil {
		return nil, err
	}
	lineSize := int(cfg.Cache.LineSize)
	defined := make(map[string]bool, len(f.Arenas))
	define := func(st *ir.StructType, count int) error {
		defined[st.Name] = true
		lay := layouts[st.Name]
		if lay == nil {
			orig, err := layout.Original(st, lineSize)
			if err != nil {
				return err
			}
			lay = orig
		}
		return r.DefineArena(lay, count)
	}
	// Arena addresses depend on definition order, so declared arenas are
	// defined in struct declaration order, never in map order.
	for _, st := range f.Prog.Structs {
		if count, ok := f.Arenas[st.Name]; ok {
			if err := define(st, count); err != nil {
				return nil, err
			}
		}
	}
	for _, b := range f.Prog.Blocks() {
		for _, in := range b.FieldInstrs() {
			if !defined[in.Struct.Name] {
				if err := define(in.Struct, 1); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, td := range f.Threads {
		if td.CPU < cfg.Topo.NumCPUs() {
			if err := r.AddThread(td.CPU, td.Proc, td.Params, td.Iters); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// StructLayouts returns the layouts a run of ls uses, keyed by struct
// name as a File's runner wants them: ls's layout for each label, or the
// label's baseline where ls has none.
func (s *Suite) StructLayouts(ls Layouts) map[string]*layout.Layout {
	lineSize := int(s.Params.Cache.LineSize)
	out := make(map[string]*layout.Layout, len(s.byLabel))
	for label, ks := range s.byLabel {
		lay := ls[label]
		if lay == nil {
			lay = ks.Baseline(lineSize)
		}
		out[ks.Type.Name] = lay
	}
	return out
}

// RunOnce executes one run and returns the raw result, with a PMU
// collector attached when smp is non-nil.
func (s *Suite) RunOnce(topo *machine.Topology, ls Layouts, seed int64, smp *sampling.Config) (*exec.Result, error) {
	r, err := NewRunner(s.File(topo), exec.Config{Topo: topo, Cache: s.Params.Cache, Seed: seed, Sampling: smp}, s.StructLayouts(ls))
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
	// Mean is the outlier-trimmed mean throughput per virtual hour: SDET
	// scripts for the suite, completed top-level iterations for a DSL
	// program.
	Mean float64 `json:"mean"`
	// Runs holds each run's throughput.
	Runs []float64 `json:"runs"`
}

// SpeedupOver returns the relative performance versus a baseline
// measurement, in percent.
func (m Measurement) SpeedupOver(base Measurement) float64 {
	return stats.SpeedupPercent(m.Mean, base.Mean)
}

// Measure runs the protocol of §5 (MeasureRuns) over the suite: n
// measured runs (the paper uses 10 after a warm-up), outliers removed,
// mean reported. Run i's seed is baseSeed+i*1009+1, a pure function of
// its index, so the measurement is byte-identical at any worker count.
//
// Measurements are memoized (MeasureMemo): the result is a pure function
// of the arguments plus the suite's parameters, so a repeated
// configuration (the figure loops share baselines and variant cells across
// machines) is simulated once per process — or once ever, with a disk
// cache.
func (s *Suite) Measure(topo *machine.Topology, ls Layouts, n int, baseSeed int64) (Measurement, error) {
	// The suite always keys: StructLayouts lays out every struct it declares.
	k, _ := MeasureKey("measure", s.File(topo), topo, s.Params.Cache, baseSeed, s.StructLayouts(ls), n)
	return MeasureMemo(context.Background(), k, n,
		func(_ context.Context, i int) (float64, error) {
			res, err := s.RunOnce(topo, ls, baseSeed+int64(i)*1009+1, nil)
			if err != nil {
				return 0, err
			}
			return Throughput(topo, res), nil
		})
}

// Collect performs the tool's data-collection phase (§4): one profiled,
// PMU-sampled run under the baseline layouts on the given collection
// machine (the paper uses a 16-way machine for its experiments).
//
// Collections are memoized (CollectMemo); every hit decodes a fresh
// Profile/Trace pair, so callers that mutate their collection (fault
// injection, sanitizing) never alias cache-held state.
func (s *Suite) Collect(topo *machine.Topology, ls Layouts, seed int64) (*profile.Profile, *sampling.Trace, error) {
	k, _ := CollectKey(s.File(topo), topo, s.Params.Cache, seed, s.StructLayouts(ls), nil) // always keys, as in Measure
	pf, tr, _, err := CollectMemo(k, s.Prog, func() (*exec.Result, error) {
		smp := CollectSampling(seed)
		return s.RunOnce(topo, ls, seed, &smp)
	})
	return pf, tr, err
}
