package driver

import (
	"structlayout/internal/exec"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/memo"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

// MeasureCtx results for DSL programs are pure functions of (program, run
// harness, topology, cache geometry, seed, run count, layouts) — MeasureCtx
// nils the sampling config and fault spec per run by contract — so they
// memoize through workload.MeasureMemo exactly like the built-in suite's
// measurements, and collections through workload.CollectMemo. This file
// holds only their keys, built on workload.HashFile like the suite's.

// measureKey keys one MeasureCtx call.
func measureKey(f *irtext.File, cfg Config, layouts map[string]*layout.Layout, n int) (memo.Key, bool) {
	h := memo.NewHasher()
	h.Str("kind", "driver.measure")
	if !workload.HashFile(h, f, cfg.Topo, cfg.Cache, cfg.Seed, layouts) {
		return memo.Key{}, false
	}
	h.Int("runs", int64(n))
	// MeasureCtx is clean by contract: fault injection applies to collected
	// artifacts, never to throughput runs. Record that in the key.
	h.FaultSpec("inject", nil)
	return h.Sum(), true
}

// collectKey keys one Collect call: the shared file config plus the
// effective sampling parameters and the fault spec (Collect hands back
// already-faulted artifacts, so the spec changes the cached value).
func collectKey(f *irtext.File, cfg Config) (memo.Key, bool) {
	cfg.fillDefaults()
	h := memo.NewHasher()
	h.Str("kind", "driver.collect")
	if !workload.HashFile(h, f, cfg.Topo, cfg.Cache, cfg.Seed, nil) {
		return memo.Key{}, false
	}
	sc := cfg.Sampling
	if sc == nil {
		smp := workload.CollectSampling(cfg.Seed)
		sc = &smp
	}
	h.Int("s.interval", sc.IntervalCycles)
	h.Int("s.drift", sc.DriftMaxCycles)
	h.F64("s.loss", sc.LossProb)
	h.Int("s.seed", sc.Seed)
	h.FaultSpec("inject", cfg.Inject)
	return h.Sum(), true
}

// CollectCacheReady reports whether CollectCached for these inputs would
// replay from the shared cache instead of simulating. Advisory only (a
// racing GC can evict between the check and the call); layoutd's
// degradation ladder uses it to tell "nearly free replay" from "real
// simulation" when budgeting a request's remaining deadline.
func CollectCacheReady(f *irtext.File, cfg Config) bool {
	k, ok := collectKey(f, cfg)
	return ok && memo.Shared().Contains(k)
}

// CollectCached is Collect through the process-wide memo cache
// (workload.CollectMemo): a pure function of (program, harness, topology,
// sampling, seed, fault spec), so repeated collections — a fleet of
// clients submitting the same program, a warm disk tier across restarts —
// replay instead of re-simulating. Hits decode fresh values; callers may
// mutate the returned artifacts freely. Returns the collected profile,
// trace, and the run's cycle count.
func CollectCached(f *irtext.File, cfg Config) (*profile.Profile, *sampling.Trace, int64, error) {
	k, ok := collectKey(f, cfg)
	if !ok {
		res, err := Collect(f, cfg, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		return res.Profile, res.Trace, res.Cycles, nil
	}
	return workload.CollectMemo(k, f.Prog, func() (*exec.Result, error) { return Collect(f, cfg, nil) })
}
