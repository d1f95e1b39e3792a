package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"structlayout/internal/coherence"
	"structlayout/internal/exec"
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
// of the file hash both key their cells with (HashFile); the built-in
// suite (below) and DSL programs (package driver) run through the one
// runner assembly (NewRunner) and differ only in their keys' kind tags
// and in how they seed their runs. The figure loops
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
// run count and sampling: the canonical program, the arenas, the threads
// and their parameters, the machine, the cache geometry, the seed, and
// the effective layout of every struct. layouts is keyed by struct name;
// a struct it lacks hashes its declaration-order layout, the one
// NewRunner falls back to. ok is false when some input resists canonical
// hashing (nil topology or program, un-layoutable struct); callers then
// skip the cache and compute directly. The built-in suite and DSL
// programs key their cells with it, each under its own kind tag.
func HashFile(h *memo.Hasher, f *irtext.File, topo *machine.Topology, cache coherence.Config, seed int64, layouts map[string]*layout.Layout) bool {
	if topo == nil || f.Prog == nil {
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

// suiteKey starts a suite cell's key: its kind tag and the suite's
// harness on topo under the layouts ls runs with. The suite's program,
// topology and baseline-completed layouts always hash.
func (s *Suite) suiteKey(kind string, topo *machine.Topology, ls Layouts, seed int64) *memo.Hasher {
	h := memo.NewHasher()
	h.Str("kind", kind)
	HashFile(h, s.File(topo), topo, s.Params.Cache, seed, s.StructLayouts(ls))
	return h
}

func (s *Suite) measureKey(topo *machine.Topology, ls Layouts, n int, baseSeed int64) memo.Key {
	h := s.suiteKey("measure", topo, ls, baseSeed)
	h.Int("runs", int64(n))
	// Measure is clean by contract (fault injection applies to collections,
	// never to throughput runs); record that in the key so a future faulted
	// variant can never collide with it.
	h.FaultSpec("inject", nil)
	return h.Sum()
}

func (s *Suite) collectKey(topo *machine.Topology, ls Layouts, seed int64) memo.Key {
	h := s.suiteKey("collect", topo, ls, seed)
	// The sampling parameters are constants but participate in the key:
	// changing them changes every trace. The sampling seed derives from
	// seed, hashed above.
	sc := CollectSampling(seed)
	h.Int("interval", sc.IntervalCycles)
	h.Int("drift", sc.DriftMaxCycles)
	h.F64("loss", sc.LossProb)
	return h.Sum()
}
