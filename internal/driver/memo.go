package driver

import (
	"structlayout/internal/exec"
	"structlayout/internal/irtext"
	"structlayout/internal/memo"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

// CollectCacheReady reports whether CollectCached for these inputs would
// replay from the shared cache instead of simulating. Advisory only (a
// racing GC can evict between the check and the call); layoutd's
// degradation ladder uses it to tell "nearly free replay" from "real
// simulation" when budgeting a request's remaining deadline.
func CollectCacheReady(f *irtext.File, cfg Config) bool {
	cfg.fillDefaults()
	k, ok := workload.CollectKey(f, cfg.Topo, cfg.Cache, cfg.Seed, nil, cfg.Sampling, cfg.Inject)
	return ok && memo.Shared().Contains(k)
}

// CollectCached is Collect through the process-wide memo cache
// (workload.CollectMemo, keyed by workload.CollectKey): a pure function of
// (program, harness, topology, sampling, seed, fault spec), so repeated
// collections — a fleet of clients submitting the same program, a warm
// disk tier across restarts — replay instead of re-simulating. Hits decode
// fresh values; callers may mutate the returned artifacts freely. Returns
// the collected profile, trace, and the run's cycle count.
func CollectCached(f *irtext.File, cfg Config) (*profile.Profile, *sampling.Trace, int64, error) {
	cfg.fillDefaults()
	k, ok := workload.CollectKey(f, cfg.Topo, cfg.Cache, cfg.Seed, nil, cfg.Sampling, cfg.Inject)
	if !ok {
		res, err := Collect(f, cfg, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		return res.Profile, res.Trace, res.Cycles, nil
	}
	return workload.CollectMemo(k, f.Prog, func() (*exec.Result, error) { return Collect(f, cfg, nil) })
}
