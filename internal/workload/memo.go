package workload

import (
	"bytes"
	"encoding/json"

	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// Measurements and collections are pure functions of (suite parameters,
// layouts, topology, run count, seeds), so both Measure and Collect are
// memoized through the process-wide memo.Shared() cache. The figure loops
// measure the same baseline cell per machine in several configurations
// (Figure 8 and Figure 10 share all their Superdome128 "auto" cells, the
// robustness sweep re-measures the Figure 9 baseline), and a warm disk
// cache (-cache-dir) carries whole pipeline re-runs.
//
// Values are stored as JSON: Go's encoder writes float64 in shortest-exact
// form, so a decoded Measurement is bit-identical to the computed one and
// cached runs render byte-identical tables. Collect hits decode fresh
// Profile/Trace values on every call, so a caller mutating its collection
// (fault injection, sanitizing) can never poison the cache.

// hashConfig adds every measurement-relevant suite input: the program
// identity, all workload parameters (the IR program is constructed from
// them), cache geometry, topology and the layout set.
func (s *Suite) hashConfig(h *memo.Hasher, topo *machine.Topology, ls Layouts) {
	h.Str("prog", s.Prog.Name)
	p := s.Params
	h.Int("p.scan", p.ScanInstances)
	h.Int("p.bursts", p.SyscallBursts)
	h.F64("p.seqwrite", p.SeqWriteProb)
	h.F64("p.loadwrite", p.LoadWriteProb)
	h.Int("p.crossvm", int64(p.CrossVMReads))
	h.Int("p.probes", p.LookupProbes)
	h.Int("p.mmscan", p.MMScan)
	h.Int("p.ioscan", p.IOScan)
	h.Int("p.usersweep", p.UserSweep)
	h.Int("p.scripts", p.ScriptsPerThread)
	h.Int("p.mounts", int64(p.NumMounts))
	h.CacheConfig("cache", p.Cache)
	h.Topology("topo", topo)
	// Arena layouts: hash the effective layout for every label, including
	// baseline fallbacks, exactly as newRunner resolves them.
	lineSize := int(p.Cache.LineSize)
	eff := make(Layouts, len(s.byLabel))
	for _, label := range Labels() {
		lay := ls[label]
		if lay == nil {
			lay = s.byLabel[label].Baseline(lineSize)
		}
		eff[label] = lay
	}
	h.Layouts("layouts", eff)
}

// measurementValue is the cached form of a Measurement.
type measurementValue struct {
	Mean float64   `json:"mean"`
	Runs []float64 `json:"runs"`
}

func (s *Suite) measureKey(topo *machine.Topology, ls Layouts, n int, baseSeed int64) memo.Key {
	h := memo.NewHasher()
	h.Str("kind", "measure")
	s.hashConfig(h, topo, ls)
	h.Int("runs", int64(n))
	h.Int("seed", baseSeed)
	// The simulation mode and every sampling parameter are part of a
	// measurement's identity: a sampled result must never replace (or be
	// replaced by) an exact one, and changing the window, period or seed
	// changes the simulated subset.
	h.SimConfig("sim", s.Sim)
	// Measure is clean by contract (fault injection applies to collections,
	// never to throughput runs); record that in the key so a future faulted
	// variant can never collide with it.
	h.FaultSpec("inject", nil)
	return h.Sum()
}

// measureMemo wraps the raw measurement in the shared cache.
func (s *Suite) measureMemo(topo *machine.Topology, ls Layouts, n int, baseSeed int64,
	compute func() (Measurement, error)) (Measurement, error) {
	k := s.measureKey(topo, ls, n, baseSeed)
	raw, err := memo.Shared().Do(k, func() ([]byte, error) {
		m, err := compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(measurementValue{Mean: m.Mean, Runs: m.Runs})
	})
	if err != nil {
		return Measurement{}, err
	}
	var v measurementValue
	if err := json.Unmarshal(raw, &v); err != nil {
		// A corrupt cache entry (hand-edited or damaged disk tier) degrades
		// to recomputation, matching the pipeline's degrade-don't-die rule.
		return compute()
	}
	return Measurement{Mean: v.Mean, Runs: v.Runs}, nil
}

// collectValue is the cached form of one collection: the two artifact
// streams in their canonical file encodings, so the cache reuses the same
// serialization (and on decode, the same validation) as the on-disk
// profile/trace formats.
type collectValue struct {
	Profile json.RawMessage `json:"profile"`
	Trace   json.RawMessage `json:"trace"`
}

func (s *Suite) collectKey(topo *machine.Topology, ls Layouts, seed int64) memo.Key {
	h := memo.NewHasher()
	h.Str("kind", "collect")
	s.hashConfig(h, topo, ls)
	h.Int("seed", seed)
	// The sampling parameters are compile-time constants but participate in
	// the key: changing them changes every trace.
	h.Int("interval", CollectSampleInterval)
	h.Int("drift", 8)
	h.F64("loss", 0.02)
	return h.Sum()
}

// collectMemo wraps a collection in the shared cache. Hits decode fresh
// values; the cache never hands out aliased pointers.
func (s *Suite) collectMemo(topo *machine.Topology, ls Layouts, seed int64,
	compute func() (*profile.Profile, *sampling.Trace, error)) (*profile.Profile, *sampling.Trace, error) {
	k := s.collectKey(topo, ls, seed)
	raw, err := memo.Shared().Do(k, func() ([]byte, error) {
		pf, tr, err := compute()
		if err != nil {
			return nil, err
		}
		var pbuf, tbuf bytes.Buffer
		if err := pf.WriteJSON(&pbuf); err != nil {
			return nil, err
		}
		if err := tr.WriteJSON(&tbuf); err != nil {
			return nil, err
		}
		return json.Marshal(collectValue{Profile: pbuf.Bytes(), Trace: tbuf.Bytes()})
	})
	if err != nil {
		return nil, nil, err
	}
	var v collectValue
	if err := json.Unmarshal(raw, &v); err != nil {
		return compute()
	}
	pf, perr := profile.ReadJSON(bytes.NewReader(v.Profile), s.Prog)
	tr, terr := sampling.ReadJSON(bytes.NewReader(v.Trace))
	if perr != nil || terr != nil {
		// Corrupt or shape-mismatched entry (e.g. a stale disk tier written
		// for a differently-parameterized program): recompute fresh.
		return compute()
	}
	return pf, tr, nil
}
