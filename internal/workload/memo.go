package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"structlayout/internal/coherence"
	"structlayout/internal/exec"
	"structlayout/internal/faults"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
	"structlayout/internal/stats"
)

// Measurements and collections are pure functions of (program, run
// harness, layouts, topology, run count, seeds), so both memoize through
// the process-wide memo.Shared() cache. This file holds the one
// implementation of the measurement protocol, of the collection cache and
// of their keys (MeasureKey, CollectKey, both over HashFile); the built-in
// suite and DSL programs (package driver) run through the one runner
// assembly (NewRunner) and differ only in how they seed their measured
// runs, which their measure keys' kind tags name. The figure loops
// measure the same baseline cell per machine in several configurations
// (Figure 8 and Figure 10 share all their Superdome128 "auto" cells, the
// robustness sweep re-measures the Figure 9 baseline), and a warm disk
// cache (-cache-dir) carries whole pipeline re-runs.
//
// Values are stored as JSON: Go's encoder writes float64 in shortest-exact
// form, so a decoded Measurement is bit-identical to the computed one and
// cached runs render byte-identical tables. Collection hits decode fresh
// Profile/Trace values on every call, so a caller mutating its collection
// (fault injection, sanitizing) can never poison the cache.

// measurementValue is the cached form of a Measurement.
type measurementValue struct {
	Mean float64   `json:"mean"`
	Runs []float64 `json:"runs"`
}

// MeasureRuns runs the protocol of §5 uncached: n measured runs fan out
// over the worker pool up to parallel.Limit(), throughputs gather by run
// index, outliers are trimmed and the mean reported. run returns run i's
// throughput and must derive everything seeded from i alone (never from
// scheduling), so the measurement is byte-identical at any worker count.
// A cancelled ctx stops dequeuing runs (a run already simulating
// finishes) and returns ctx's error.
func MeasureRuns(ctx context.Context, n int, run func(ctx context.Context, i int) (float64, error)) (Measurement, error) {
	if n <= 0 {
		return Measurement{}, fmt.Errorf("workload: need at least one run")
	}
	runs, err := parallel.MapCtx(ctx, n, run)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Mean: stats.TrimmedMean(runs), Runs: runs}, nil
}

// MeasureMemo is MeasureRuns memoized in memo.Shared() under k. A corrupt
// cache entry (hand-edited or damaged disk tier) degrades to
// recomputation. A cancelled measurement is never cached, so a later
// uncancelled call recomputes the full, deterministic aggregate.
func MeasureMemo(ctx context.Context, k memo.Key, n int, run func(ctx context.Context, i int) (float64, error)) (Measurement, error) {
	for {
		raw, err := memo.Shared().Do(k, func() ([]byte, error) {
			m, err := MeasureRuns(ctx, n, run)
			if err != nil {
				return nil, err
			}
			return json.Marshal(measurementValue{Mean: m.Mean, Runs: m.Runs})
		})
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The error is another caller's: concurrent measurements of the
			// same cell share one in-flight computation, and the one doing
			// the computing was cancelled. Our own deadline still holds, so
			// go again — either we compute it ourselves this time or a
			// completed flight serves us.
			continue
		}
		if err != nil {
			return Measurement{}, err
		}
		var v measurementValue
		if err := json.Unmarshal(raw, &v); err != nil {
			return MeasureRuns(ctx, n, run)
		}
		return Measurement{Mean: v.Mean, Runs: v.Runs}, nil
	}
}

// collectValue is the cached form of one collection: the artifact streams
// in their canonical file encodings (decode reuses the on-disk formats'
// validation) plus the run's cycle count, which sizes the concurrency
// slices downstream.
type collectValue struct {
	Profile json.RawMessage `json:"profile"`
	Trace   json.RawMessage `json:"trace"`
	Cycles  int64           `json:"cycles"`
}

// CollectMemo memoizes one collection of prog in memo.Shared() under k:
// collect performs the sampled run. Every call, hit or miss, decodes fresh
// values, so callers may mutate the returned artifacts freely; a corrupt
// or shape-mismatched entry (e.g. a stale disk tier written for a
// differently-parameterized program) is recomputed. Returns the collected
// profile, trace, and the run's cycle count.
func CollectMemo(k memo.Key, prog *ir.Program, collect func() (*exec.Result, error)) (*profile.Profile, *sampling.Trace, int64, error) {
	raw, err := memo.Shared().Do(k, func() ([]byte, error) {
		res, err := collect()
		if err != nil {
			return nil, err
		}
		var pbuf, tbuf bytes.Buffer
		if err := res.Profile.WriteJSON(&pbuf); err != nil {
			return nil, err
		}
		if err := res.Trace.WriteJSON(&tbuf); err != nil {
			return nil, err
		}
		return json.Marshal(collectValue{Profile: pbuf.Bytes(), Trace: tbuf.Bytes(), Cycles: res.Cycles})
	})
	if err != nil {
		return nil, nil, 0, err
	}
	var v collectValue
	if err := json.Unmarshal(raw, &v); err == nil {
		pf, perr := profile.ReadJSON(bytes.NewReader(v.Profile), prog)
		tr, terr := sampling.ReadJSON(bytes.NewReader(v.Trace))
		if perr == nil && terr == nil {
			return pf, tr, v.Cycles, nil
		}
	}
	res, err := collect()
	if err != nil {
		return nil, nil, 0, err
	}
	return res.Profile, res.Trace, res.Cycles, nil
}

// HashFile adds everything a run of f's harness depends on besides the
// run count and sampling: the file as irtext.Format prints it (program,
// arenas, threads and their parameters), the machine, the cache geometry,
// the seed, and the effective layout of every struct. layouts is keyed by
// struct name; a struct it lacks hashes its declaration-order layout, the
// one NewRunner falls back to. ok is false when some input resists
// hashing (nil topology or program, un-layoutable struct); callers then
// skip the cache and compute directly.
func HashFile(h *memo.Hasher, f *irtext.File, topo *machine.Topology, cache coherence.Config, seed int64, layouts map[string]*layout.Layout) bool {
	if topo == nil || f.Prog == nil {
		return false
	}
	h.Str("file", irtext.Format(f))
	h.Topology("topo", topo)
	h.CacheConfig("cache", cache)
	h.Int("seed", seed)
	// Structs the program never touches hash their defaults too: a
	// superset of what influences the result is still canonical.
	lineSize := int(cache.LineSize)
	eff := make(map[string]*layout.Layout, len(f.Prog.Structs))
	for _, st := range f.Prog.Structs {
		lay := layouts[st.Name]
		if lay == nil {
			var err error
			if lay, err = layout.Original(st, lineSize); err != nil {
				return false
			}
		}
		eff[st.Name] = lay
	}
	h.Layouts("layouts", eff)
	return true
}

// MeasureKey keys one measurement: n runs of f's harness under layouts,
// each seeded from seed. kind names how the caller derives run i's seed
// ("measure" for the suite, "driver.measure" for the driver), so two
// seeding schemes never share a cell.
func MeasureKey(kind string, f *irtext.File, topo *machine.Topology, cache coherence.Config, seed int64, layouts map[string]*layout.Layout, n int) (memo.Key, bool) {
	h := memo.NewHasher()
	h.Str("kind", kind)
	if !HashFile(h, f, topo, cache, seed, layouts) {
		return memo.Key{}, false
	}
	h.Int("runs", int64(n))
	return h.Sum(), true
}

// CollectKey keys one collection: a run of f's harness under layouts,
// sampled by smp (CollectSampling(seed) when nil), with spec's damage
// applied to the collected artifacts. The suite and the driver collect
// one file alike, so they share the cells.
func CollectKey(f *irtext.File, topo *machine.Topology, cache coherence.Config, seed int64, layouts map[string]*layout.Layout, smp *sampling.Config, spec *faults.Spec) (memo.Key, bool) {
	h := memo.NewHasher()
	h.Str("kind", "collect")
	if !HashFile(h, f, topo, cache, seed, layouts) {
		return memo.Key{}, false
	}
	if smp == nil {
		sc := CollectSampling(seed)
		smp = &sc
	}
	h.Int("s.interval", smp.IntervalCycles)
	h.Int("s.drift", smp.DriftMaxCycles)
	h.F64("s.loss", smp.LossProb)
	h.Int("s.seed", smp.Seed)
	h.FaultSpec("inject", spec)
	return h.Sum(), true
}
