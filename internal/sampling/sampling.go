// Package sampling simulates the paper's synchronized PMU sampling pipeline
// (§4.2): HP Caliper in whole-system mode samples every CPU at a fixed
// cycle interval; each sample carries the instruction pointer and the
// Itanium Interval Time Counter (ITC), which counts at a fixed relation to
// the clock and is synchronized across CPUs "with only a few ticks drift".
//
// Our samples carry the executing basic block instead of a raw IP — the
// paper's external script immediately maps IPs back to source lines, and a
// block is exactly one synthetic source line in this IR. The collector also
// models sample loss on heavily loaded machines, which the paper cites as a
// reason to cap sampling frequency.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"structlayout/internal/diag"
	"structlayout/internal/ir"
)

// Sample is one PMU sample: which CPU was where, and when.
type Sample struct {
	CPU   int
	Block ir.BlockID
	// ITC is the timestamp in cycles, including the CPU's drift.
	ITC int64
}

// Config parameterizes the collector.
type Config struct {
	// IntervalCycles is the sampling period; the paper uses 100000 CPU
	// cycles.
	IntervalCycles int64
	// DriftMaxCycles bounds the fixed per-CPU ITC offset ("a few ticks").
	DriftMaxCycles int64
	// LossProb drops a sample with this probability, modelling sample loss
	// on loaded machines at high sampling frequencies.
	LossProb float64
	// Seed makes drift and loss deterministic.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.IntervalCycles <= 0 {
		return fmt.Errorf("sampling: non-positive interval %d", c.IntervalCycles)
	}
	if c.DriftMaxCycles < 0 {
		return fmt.Errorf("sampling: negative drift bound")
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("sampling: loss probability %v out of [0,1)", c.LossProb)
	}
	return nil
}

// Collector accumulates samples as the execution engine advances virtual
// time. One collector serves all CPUs of one run (whole-system mode).
type Collector struct {
	cfg     Config
	rng     *rand.Rand
	drift   []int64
	nextDue []int64
	samples []Sample
}

// NewCollector builds a collector for numCPUs processors.
func NewCollector(cfg Config, numCPUs int) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numCPUs <= 0 {
		return nil, fmt.Errorf("sampling: collector needs at least one CPU, got %d", numCPUs)
	}
	c := &Collector{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		drift:   make([]int64, numCPUs),
		nextDue: make([]int64, numCPUs),
	}
	for i := range c.drift {
		if cfg.DriftMaxCycles > 0 {
			c.drift[i] = c.rng.Int63n(2*cfg.DriftMaxCycles+1) - cfg.DriftMaxCycles
		}
		// Stagger the first sample per CPU the way free-running PMUs do.
		c.nextDue[i] = c.rng.Int63n(cfg.IntervalCycles) + 1
	}
	return c, nil
}

// Tick informs the collector that the CPU has advanced to the given virtual
// time while executing block. Every elapsed sampling period emits one
// sample (unless lost). A backwards jump of virtual time is tolerated — no
// samples are emitted for it (the due clock never rewinds, so no duplicate
// samples can appear).
func (c *Collector) Tick(cpu int, now int64, block *ir.BasicBlock) {
	for c.nextDue[cpu] <= now {
		due := c.nextDue[cpu]
		c.nextDue[cpu] += c.cfg.IntervalCycles
		if block == nil {
			continue
		}
		if c.cfg.LossProb > 0 && c.rng.Float64() < c.cfg.LossProb {
			continue
		}
		c.samples = append(c.samples, Sample{CPU: cpu, Block: block.Global, ITC: due + c.drift[cpu]})
	}
}

// Trace is an immutable collection of samples plus collection metadata.
type Trace struct {
	Samples        []Sample
	IntervalCycles int64
	NumCPUs        int
}

// Finish freezes the collector into a trace.
func (c *Collector) Finish() *Trace {
	return &Trace{Samples: c.samples, IntervalCycles: c.cfg.IntervalCycles, NumCPUs: len(c.drift)}
}

// SliceCounts holds, for one time slice, the per-CPU execution frequency of
// each block: F_I(P_k, B_i) in the paper's CodeConcurrency definition.
type SliceCounts struct {
	Slice int64
	// ByCPU[cpu][block] = sample count.
	ByCPU []map[ir.BlockID]float64
}

// Slices buckets the trace into fixed-duration time slices (the paper uses
// 1 ms, about 12 samples per slice per CPU at 1.2 GHz and a 100k-cycle
// period). Slices are returned in time order. Samples naming a CPU outside
// [0, NumCPUs) are skipped: a Trace assembled from untrusted input may
// carry them, and bucketing must not fail on them (use Sanitize to count
// and report such samples).
func (t *Trace) Slices(sliceCycles int64) ([]SliceCounts, error) {
	if sliceCycles <= 0 {
		return nil, fmt.Errorf("sampling: non-positive slice size %d", sliceCycles)
	}
	bySlice := make(map[int64]*SliceCounts)
	var order []int64
	for _, s := range t.Samples {
		if s.CPU < 0 || s.CPU >= t.NumCPUs {
			continue
		}
		idx := s.ITC / sliceCycles
		if s.ITC < 0 {
			idx = 0 // drift can push the very first sample below zero
		}
		sc := bySlice[idx]
		if sc == nil {
			sc = &SliceCounts{Slice: idx, ByCPU: make([]map[ir.BlockID]float64, t.NumCPUs)}
			bySlice[idx] = sc
			order = append(order, idx)
		}
		m := sc.ByCPU[s.CPU]
		if m == nil {
			m = make(map[ir.BlockID]float64)
			sc.ByCPU[s.CPU] = m
		}
		m[s.Block]++
	}
	// Deterministic time order.
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]SliceCounts, 0, len(order))
	for _, idx := range order {
		out = append(out, *bySlice[idx])
	}
	return out, nil
}

// Sanitize validates a trace sample-by-sample and returns a cleaned copy,
// recording everything it found in log (which may be nil). numBlocks, when
// positive, bounds valid block ids (a program's block count); non-positive
// means unknown and only negative block ids are rejected.
//
// Checks, in order:
//   - samples naming a CPU outside [0, NumCPUs) are dropped,
//   - samples naming a block outside the valid range are dropped,
//   - samples with an ITC more than 1000 sampling intervals below zero are
//     dropped (legitimate drift reaches a few intervals at most; anything
//     further is corrupt),
//   - exact duplicate samples (same CPU, block, ITC — impossible from a
//     real PMU, whose per-CPU due clock advances strictly) are dropped,
//   - per-CPU ITC monotonicity violations are counted but kept: slicing is
//     order-independent, so reordered samples still contribute.
//
// A clean trace comes back unchanged (same sample values, fresh slice), so
// sanitizing is safe to apply unconditionally.
func Sanitize(t *Trace, numBlocks int, log *diag.Log) *Trace {
	if t == nil {
		return nil
	}
	absurd := int64(-1000) * t.IntervalCycles
	if t.IntervalCycles <= 0 {
		absurd = -1 << 50
	}
	var badCPU, badBlock, badITC, dups, nonMonotonic int
	seen := make(map[Sample]struct{}, len(t.Samples))
	lastITC := make(map[int]int64, t.NumCPUs)
	kept := make([]Sample, 0, len(t.Samples))
	for _, s := range t.Samples {
		switch {
		case s.CPU < 0 || s.CPU >= t.NumCPUs:
			badCPU++
			continue
		case s.Block < 0 || (numBlocks > 0 && int(s.Block) >= numBlocks):
			badBlock++
			continue
		case s.ITC < absurd:
			badITC++
			continue
		}
		if _, ok := seen[s]; ok {
			dups++
			continue
		}
		seen[s] = struct{}{}
		if last, ok := lastITC[s.CPU]; ok && s.ITC < last {
			nonMonotonic++
		} else {
			lastITC[s.CPU] = s.ITC
		}
		kept = append(kept, s)
	}
	log.AddN(diag.Error, "sampling", "cpu-range", badCPU, "sample names a CPU outside [0,%d); dropped", t.NumCPUs)
	log.AddN(diag.Error, "sampling", "block-range", badBlock, "sample names an invalid block id; dropped")
	log.AddN(diag.Warning, "sampling", "itc-absurd", badITC, "sample ITC below any plausible drift; dropped")
	log.AddN(diag.Warning, "sampling", "dup-dropped", dups, "exact duplicate sample; dropped")
	log.AddN(diag.Warning, "sampling", "itc-nonmonotonic", nonMonotonic, "per-CPU ITC went backwards; kept (slicing is order-independent)")
	return &Trace{Samples: kept, IntervalCycles: t.IntervalCycles, NumCPUs: t.NumCPUs}
}
