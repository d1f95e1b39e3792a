package driver

import (
	"sort"

	"structlayout/internal/exec"
	"structlayout/internal/ir"
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
// holds only their keys. What unblocked this is ir.Canonical:
// an arbitrary parsed program now has a deterministic, semantically
// complete serialization to hash, where the built-in suite could hash its
// few scalar parameters instead.

// hashFileConfig hashes everything MeasureCtx and Collect share: the
// canonical program, the run harness (arenas, threads), the machine, the
// cache geometry, the seed, and the effective layout of every struct. ok
// is false when some input resists canonical hashing (nil topology,
// un-layoutable struct); callers then skip the cache and compute directly.
func hashFileConfig(h *memo.Hasher, f *irtext.File, cfg Config, layouts map[string]*layout.Layout) bool {
	if cfg.Topo == nil || f.Prog == nil {
		return false
	}
	h.Str("prog", ir.Canonical(f.Prog))
	names := make([]string, 0, len(f.Arenas))
	for name := range f.Arenas {
		names = append(names, name)
	}
	sort.Strings(names)
	h.Int("arenas.n", int64(len(names)))
	for _, name := range names {
		h.Str("arena", name)
		h.Int("arena.count", int64(f.Arenas[name]))
	}
	h.Int("threads.n", int64(len(f.Threads)))
	for _, td := range f.Threads {
		h.Int("t.cpu", int64(td.CPU))
		h.Str("t.proc", td.Proc)
		params := make([]int64, len(td.Params))
		for i, p := range td.Params {
			params[i] = int64(p)
		}
		h.Ints("t.params", params)
		h.Int("t.iters", td.Iters)
	}
	h.Topology("topo", cfg.Topo)
	h.CacheConfig("cache", cfg.Cache)
	h.Int("seed", cfg.Seed)
	// Hash the effective layout of every struct, resolving fallbacks the
	// way Run does (declaration order when no layout is supplied). Structs
	// the program never touches hash their defaults too — a superset of
	// what influences the result is still canonical.
	lineSize := int(cfg.Cache.LineSize)
	eff := make(map[string]*layout.Layout, len(f.Prog.Structs))
	for _, st := range f.Prog.Structs {
		lay := layouts[st.Name]
		if lay == nil {
			var err error
			lay, err = layout.Original(st, lineSize)
			if err != nil {
				return false
			}
		}
		eff[st.Name] = lay
	}
	h.Layouts("layouts", eff)
	return true
}

// measureKey keys one MeasureCtx call.
func measureKey(f *irtext.File, cfg Config, layouts map[string]*layout.Layout, n int) (memo.Key, bool) {
	h := memo.NewHasher()
	h.Str("kind", "driver.measure")
	if !hashFileConfig(h, f, cfg, layouts) {
		return memo.Key{}, false
	}
	h.Int("runs", int64(n))
	h.ExactSim()
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
	if !hashFileConfig(h, f, cfg, nil) {
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
