package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"structlayout/internal/coherence"
	"structlayout/internal/experiments"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
)

// benchStage is one timed stage of the pipeline, with the measurement
// cache's traffic attributed to it (deltas of the shared memo counters
// across the stage).
type benchStage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// MemoHits counts measurements/collections this stage reused (memory +
	// disk tier); MemoMisses counts the ones it computed.
	MemoHits   uint64 `json:"memo_hits"`
	MemoMisses uint64 `json:"memo_misses"`
}

// benchReport is the regression-tracking artifact (BENCH_pipeline.json).
// The primary (gated) numbers are the parallel cold pass; a serial cold
// pass is recorded alongside so the parallel fast path's benefit — and any
// regression confined to one of the two — stays visible.
type benchReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	Runs       int    `json:"runs"`
	Short      bool   `json:"short"`
	// NsPerAccess and AllocsPerAccess measure the coherence simulator's
	// inner loop (Bus4, 128 B lines, 128×8 cache) outside the pipeline.
	NsPerAccess     float64      `json:"ns_per_access"`
	AllocsPerAccess float64      `json:"allocs_per_access"`
	Stages          []benchStage `json:"stages"`
	TotalSeconds    float64      `json:"total_seconds"`
	// SerialStages/SerialSeconds are a second cold pass at -j 1.
	SerialStages  []benchStage `json:"serial_stages,omitempty"`
	SerialSeconds float64      `json:"serial_seconds,omitempty"`
	// Memo totals across the parallel pass, split by tier. A warm
	// -cache-dir run shows them as disk hits; in-process dedup shows as
	// memory hits.
	MemoMemHits  uint64 `json:"memo_mem_hits"`
	MemoDiskHits uint64 `json:"memo_disk_hits"`
	MemoMisses   uint64 `json:"memo_misses"`
}

// runBench times every stage of `experiments all` twice — a cold serial
// pass at -j 1, then a cold parallel pass at the configured -j (the gated
// headline) — microbenchmarks the coherence simulator, and writes the
// report to out when it is set. With a baseline (-check) it fails when
// total wall-clock, any stage, or ns/access regresses past its gate, or
// when any stage's memo hits or misses differ from the baseline's.
func runBench(cfg experiments.Config, short bool, out, check string) error {
	if short {
		cfg.Runs = 2
	}
	// The simulator itself is allocation-free on its hot path; the GC cycles
	// a bench pass triggers come from memo encoding and analysis churn, and
	// at the default 100% heap-growth target they cost over 10% of a cold
	// pass. Relax the target for the benchmark process only, unless the
	// operator pinned one explicitly.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	jobs := parallel.Limit()
	rep := &benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       jobs,
		Runs:       cfg.Runs,
		Short:      short,
	}
	rep.NsPerAccess, rep.AllocsPerAccess = benchCoherence()
	fmt.Printf("coherence simulator: %.1f ns/access, %.3f allocs/access\n", rep.NsPerAccess, rep.AllocsPerAccess)

	// Serial cold pass first: it shares nothing with the parallel pass
	// (the in-memory memo tier is cleared between them), so both are cold.
	fmt.Printf("serial pass (-j 1):\n")
	parallel.SetLimit(1)
	memo.Shared().Clear()
	var err error
	rep.SerialStages, rep.SerialSeconds, err = benchPass(cfg, short)
	if err != nil {
		return err
	}
	fmt.Printf("serial total: %.2fs\n", rep.SerialSeconds)

	// Parallel cold pass: the gated headline numbers.
	fmt.Printf("parallel pass (-j %d):\n", jobs)
	parallel.SetLimit(jobs)
	memo.Shared().Clear()
	rep.Stages, rep.TotalSeconds, err = benchPass(cfg, short)
	if err != nil {
		return err
	}
	total := memo.Shared().Stats()
	rep.MemoMemHits, rep.MemoDiskHits, rep.MemoMisses = total.MemHits, total.DiskHits, total.Misses
	fmt.Printf("total: %.2fs at -j %d (%d runs/config), memo %d mem + %d disk hits / %d misses\n",
		rep.TotalSeconds, rep.Jobs, rep.Runs, total.MemHits, total.DiskHits, total.Misses)

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if check != "" {
		return checkRegression(rep, check)
	}
	return nil
}

// benchPass runs every stage of `experiments all` — plus the robustness
// sweep measured on Superdome128 — against a cold in-memory cache, and
// returns the timed stages.
func benchPass(cfg experiments.Config, short bool) ([]benchStage, float64, error) {
	severities := experiments.DefaultSeverities
	if short {
		severities = []float64{0, 0.5}
	}
	start := time.Now()
	var p *experiments.Pipeline
	stages := []struct {
		name string
		fn   func() error
	}{
		{"collect+analyze", func() error {
			var err error
			p, err = experiments.NewPipeline(cfg)
			return err
		}},
		{"fig8", func() error { _, err := p.Fig8(); return err }},
		{"fig9", func() error { _, err := p.Fig9(); return err }},
		{"fig10", func() error { _, err := p.Fig10(); return err }},
		{"stability", func() error { _, err := p.ConcurrencyStability(20); return err }},
		{"predict", func() error { _, err := p.PredictionAccuracy(); return err }},
		{"robustness", func() error {
			_, err := experiments.Robustness(cfg, nil, severities, nil)
			return err
		}},
		{"sweep128", func() error {
			_, err := experiments.Robustness(cfg, nil, severities, machine.Superdome128())
			return err
		}},
	}
	var out []benchStage
	memoBefore := memo.Shared().Stats()
	for _, st := range stages {
		t0 := time.Now()
		if err := st.fn(); err != nil {
			return nil, 0, fmt.Errorf("bench %s: %w", st.name, err)
		}
		secs := time.Since(t0).Seconds()
		memoNow := memo.Shared().Stats()
		d := memoNow.Sub(memoBefore)
		memoBefore = memoNow
		out = append(out, benchStage{
			Name: st.name, Seconds: secs,
			MemoHits: d.Hits(), MemoMisses: d.Misses,
		})
		fmt.Printf("  %-16s %7.2fs  (memo %d hit / %d miss)\n", st.name, secs, d.Hits(), d.Misses)
	}
	return out, time.Since(start).Seconds(), nil
}

// Per-stage regression gating. Stages shorter than stageGateFloor seconds
// in the baseline are too noisy to gate (a scheduler hiccup doubles a
// 100 ms stage); long stages get a looser multiplier than the total
// because single-stage variance doesn't average out. ns/access gates
// loosest of all: it is machine-dependent, so the gate only catches
// algorithmic regressions of the simulator's inner loop (a lost fast
// path roughly doubles it), never CI-runner variance.
const (
	totalGateRatio = 1.25
	stageGateRatio = 1.5
	stageGateFloor = 0.5 // seconds in the baseline
	nsGateRatio    = 1.6
)

// checkRegression compares against a committed baseline report: the total
// wall-clock gates at totalGateRatio, and each stage through
// stageFailures — so one stage regressing 2× can no longer hide inside a
// total that other stages' improvements pulled back under the limit. The
// serial pass gates its counters only, and a baseline of other runs or
// short settings fails outright: its stages did other work.
func checkRegression(rep *benchReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	if base.TotalSeconds <= 0 {
		return fmt.Errorf("bench baseline %s has no total_seconds", path)
	}
	if base.Runs != rep.Runs || base.Short != rep.Short {
		return fmt.Errorf("bench: baseline %s ran runs %d, short %v; this run ran runs %d, short %v",
			path, base.Runs, base.Short, rep.Runs, rep.Short)
	}
	ratio := rep.TotalSeconds / base.TotalSeconds
	fmt.Printf("wall-clock vs baseline %s: %.2fx (%.2fs vs %.2fs)\n", path, ratio, rep.TotalSeconds, base.TotalSeconds)
	var failures []string
	if ratio > totalGateRatio {
		failures = append(failures, fmt.Sprintf("total regressed %.0f%% (limit %.0f%%)",
			(ratio-1)*100, (totalGateRatio-1)*100))
	}
	failures = append(failures, stageFailures("stage", rep.Stages, base.Stages, true)...)
	failures = append(failures, stageFailures("serial stage", rep.SerialStages, base.SerialStages, false)...)
	if base.NsPerAccess > 0 && rep.NsPerAccess > 0 {
		if r := rep.NsPerAccess / base.NsPerAccess; r > nsGateRatio {
			failures = append(failures, fmt.Sprintf("ns/access regressed %.2fx (%.1f vs %.1f, limit %.2fx)",
				r, rep.NsPerAccess, base.NsPerAccess, nsGateRatio))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %s", strings.Join(failures, "; "))
	}
	return nil
}

// stageFailures gates each run stage against the baseline stage of the
// same name: its memo hits and misses exactly (they count work, the same on
// any machine), then, when timed, its wall-clock at stageGateRatio once the
// baseline time clears the noise floor. A stage on one side only fails
// too, named: a renamed or new stage would otherwise go ungated. what
// names the stages in messages.
func stageFailures(what string, stages, base []benchStage, timed bool) []string {
	baseStages := make(map[string]benchStage, len(base))
	for _, st := range base {
		baseStages[st.Name] = st
	}
	var failures []string
	ran := make(map[string]bool, len(stages))
	for _, st := range stages {
		ran[st.Name] = true
		switch bs, ok := baseStages[st.Name]; {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s %s is not in the baseline", what, st.Name))
		case st.MemoHits != bs.MemoHits || st.MemoMisses != bs.MemoMisses:
			failures = append(failures, fmt.Sprintf("%s %s memo hits/misses %d/%d, baseline %d/%d",
				what, st.Name, st.MemoHits, st.MemoMisses, bs.MemoHits, bs.MemoMisses))
		case timed && bs.Seconds >= stageGateFloor && st.Seconds/bs.Seconds > stageGateRatio:
			failures = append(failures, fmt.Sprintf("%s %s regressed %.2fx (%.2fs vs %.2fs, limit %.2fx)",
				what, st.Name, st.Seconds/bs.Seconds, st.Seconds, bs.Seconds, stageGateRatio))
		}
	}
	for _, st := range base {
		if !ran[st.Name] {
			failures = append(failures, fmt.Sprintf("baseline %s %s did not run", what, st.Name))
		}
	}
	return failures
}

// benchCoherence measures the simulator's per-access cost the same way the
// BenchmarkCoherenceAccess micro-benchmark does: a deterministic SDET-like
// access mix (mostly-read scans plus contended hot-line writes) on the
// 4-way bus machine.
func benchCoherence() (nsPerAccess, allocsPerAccess float64) {
	const (
		streamLen = 1 << 16
		iters     = 1 << 20
		maxAddr   = 1 << 20
	)
	topo := machine.Bus4()
	sys, err := coherence.NewSystem(topo, coherence.Config{LineSize: 128, Sets: 128, Ways: 8})
	if err != nil {
		return 0, 0
	}
	sys.ReserveDirectory(maxAddr)
	rng := rand.New(rand.NewSource(42))
	cpu := make([]int, streamLen)
	addr := make([]int64, streamLen)
	write := make([]bool, streamLen)
	for i := range cpu {
		cpu[i] = rng.Intn(topo.NumCPUs())
		if rng.Intn(10) == 0 {
			addr[i] = 128 + int64(rng.Intn(16))*8
			write[i] = true
		} else {
			addr[i] = 128 + rng.Int63n(maxAddr-256)
			write[i] = rng.Intn(4) == 0
		}
	}
	// Warm up the caches and directory, then measure.
	for i := 0; i < streamLen; i++ {
		sys.Access(cpu[i], addr[i], 8, write[i])
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		j := i % streamLen
		sys.Access(cpu[j], addr[j], 8, write[j])
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / iters, float64(m1.Mallocs-m0.Mallocs) / iters
}
