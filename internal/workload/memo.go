package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"structlayout/internal/exec"
	"structlayout/internal/ir"
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
// implementation of the measurement protocol and of the collection cache;
// the built-in suite (below) and DSL programs (package driver) run through
// the one runner assembly (NewRunner) and differ only in how they key a
// cell and seed its runs. The figure loops
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

// hashConfig adds every measurement-relevant suite input: the program
// identity, the workload shape and parameters (the IR program is
// constructed from them), cache geometry, topology and the layout set.
// The shape constants keep the records they had as settable fields, the
// zero cross-VM read count included, so keys stay put.
func (s *Suite) hashConfig(h *memo.Hasher, topo *machine.Topology, ls Layouts) {
	h.Str("prog", s.Prog.Name)
	p := s.Params
	h.Int("p.scan", scanInstances)
	h.Int("p.bursts", syscallBursts)
	h.F64("p.seqwrite", seqWriteProb)
	h.F64("p.loadwrite", loadWriteProb)
	h.Int("p.crossvm", 0)
	h.Int("p.probes", lookupProbes)
	h.Int("p.mmscan", mmScan)
	h.Int("p.ioscan", ioScan)
	h.Int("p.usersweep", userSweep)
	h.Int("p.scripts", p.ScriptsPerThread)
	h.Int("p.mounts", numMounts)
	h.CacheConfig("cache", p.Cache)
	h.Topology("topo", topo)
	// Arena layouts: hash the effective layout for every label, including
	// baseline fallbacks, exactly as RunOnce resolves them.
	h.Layouts("layouts", s.effective(ls))
}

func (s *Suite) measureKey(topo *machine.Topology, ls Layouts, n int, baseSeed int64) memo.Key {
	h := memo.NewHasher()
	h.Str("kind", "measure")
	s.hashConfig(h, topo, ls)
	h.Int("runs", int64(n))
	h.Int("seed", baseSeed)
	h.ExactSim()
	// Measure is clean by contract (fault injection applies to collections,
	// never to throughput runs); record that in the key so a future faulted
	// variant can never collide with it.
	h.FaultSpec("inject", nil)
	return h.Sum()
}

func (s *Suite) collectKey(topo *machine.Topology, ls Layouts, seed int64) memo.Key {
	h := memo.NewHasher()
	h.Str("kind", "collect")
	s.hashConfig(h, topo, ls)
	h.Int("seed", seed)
	// The sampling parameters are constants but participate in the key:
	// changing them changes every trace. The sampling seed derives from
	// seed, hashed above.
	sc := CollectSampling(seed)
	h.Int("interval", sc.IntervalCycles)
	h.Int("drift", sc.DriftMaxCycles)
	h.F64("loss", sc.LossProb)
	return h.Sum()
}
