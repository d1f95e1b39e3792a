package driver

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/core"
	"structlayout/internal/exec"
	"structlayout/internal/faults"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
	"structlayout/internal/parallel"
	"structlayout/internal/sampling"
	"structlayout/internal/workload"
)

func mustOriginal(t testing.TB, st *ir.StructType, lineSize int) *layout.Layout {
	t.Helper()
	l, err := layout.Original(st, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

const demoProgram = `
program demo

struct conn {
    c_state  i64
    c_events i64
    c_rx     i64
    c_cold0  i64
    c_cold1  i64
}

struct side { s_a i64 }

proc poller {
    loop 200 {
        read conn.c_state loopvar
        read conn.c_events loopvar
        compute 20
    }
    read side.s_a shared 0
}

proc worker {
    loop 200 {
        write conn.c_rx shared 0
        compute 50
    }
}

proc main0 { call poller  call worker }

arena conn 256
thread 0 main0 iters 3
thread 1 main0 iters 3
thread 2 main0 iters 3
thread 3 main0 iters 3
`

func parseDemo(t testing.TB) *irtext.File {
	t.Helper()
	f, err := irtext.Parse(demoProgram)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunParsedProgram(t *testing.T) {
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 3}
	origs, err := OriginalLayouts(f, cfg.LineSize())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(f, cfg, origs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 12 {
		t.Fatalf("completed = %d, want 12", res.Completed)
	}
	if res.Coherence.Accesses == 0 {
		t.Fatal("no memory traffic")
	}
}

func TestUndeclaredStructGetsDefaultArena(t *testing.T) {
	// struct side has no arena declaration; Run must still work.
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 1}
	if _, err := Run(f, cfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThreadsBeyondMachineSkipped(t *testing.T) {
	src := `
program p
proc f { compute 10 }
thread 0 f iters 1
thread 500 f iters 1
`
	f, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(f, Config{Topo: machine.Bus4()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d; the out-of-range thread should be skipped", res.Completed)
	}
}

func TestCollectThenTool(t *testing.T) {
	// Full DSL-to-advisory path: parse, collect, analyze, suggest.
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 9}
	res, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Samples) == 0 {
		t.Fatal("collection produced no samples")
	}
	analysis, err := core.NewAnalysis(f.Prog, res.Profile, res.Trace, core.Options{
		LineSize:    cfg.LineSize(),
		SliceCycles: 25000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Prog.Struct("conn")
	sugg, err := analysis.Suggest("conn", mustOriginal(t, st, cfg.LineSize()))
	if err != nil {
		t.Fatal(err)
	}
	// The pollers' walk pair clusters; the writer's field separates.
	if !sugg.Auto.SameLine(st.FieldIndex("c_state"), st.FieldIndex("c_events")) {
		t.Fatalf("walk pair split:\n%s", sugg.Auto.Dump())
	}
	if sugg.Auto.SameLine(st.FieldIndex("c_rx"), st.FieldIndex("c_state")) {
		t.Fatalf("written field not separated:\n%s", sugg.Auto.Dump())
	}
}

func TestValidateThreads(t *testing.T) {
	f := parseDemo(t)
	if err := ValidateThreads(f, machine.Bus4()); err != nil {
		t.Fatal(err)
	}
	dup, err := irtext.Parse(`
program p
proc f { compute 1 }
thread 0 f iters 1
thread 0 f iters 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateThreads(dup, machine.Bus4()); err == nil {
		t.Fatal("duplicate cpu accepted")
	}
	far, err := irtext.Parse(`
program p
proc f { compute 1 }
thread 100 f iters 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateThreads(far, machine.Bus4()); err == nil {
		t.Fatal("unrunnable thread set accepted")
	}
}

func TestRunErrors(t *testing.T) {
	f := parseDemo(t)
	if _, err := Run(f, Config{}, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
	noThreads, err := irtext.Parse(`program p
proc f { compute 1 }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(noThreads, Config{Topo: machine.Bus4()}, nil); err == nil {
		t.Fatal("threadless program accepted")
	}
}

// TestMemcachedProgram runs the shipped memcached-like DSL program through
// the full pipeline and checks the tool's decisions: the hash-chain walk
// pair stays together, and both the request counter (written by every
// worker) and the LRU clock (written concurrently with the walk) leave the
// walk line.
func TestMemcachedProgram(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "memcached.slp"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: machine.Bus4(), Seed: 5}
	res, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := core.NewAnalysis(f.Prog, res.Profile, res.Trace, core.Options{
		LineSize:    cfg.LineSize(),
		SliceCycles: res.Cycles/64 + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Prog.Struct("item")
	sugg, err := analysis.Suggest("item", mustOriginal(t, st, cfg.LineSize()))
	if err != nil {
		t.Fatal(err)
	}
	lay := sugg.Auto
	hash, next := st.FieldIndex("it_key_hash"), st.FieldIndex("it_next")
	hits, lru := st.FieldIndex("it_hits"), st.FieldIndex("it_lru_clock")
	if !lay.SameLine(hash, next) {
		t.Fatalf("walk pair split:\n%s", lay.Dump())
	}
	if lay.SameLine(hits, hash) || lay.SameLine(hits, next) {
		t.Fatalf("stats counter left in the walk line:\n%s", lay.Dump())
	}
	if lay.SameLine(lru, hash) || lay.SameLine(lru, next) {
		t.Fatalf("LRU clock left in the walk line:\n%s", lay.Dump())
	}
	// The layout change pays off end to end on this machine.
	before, err := Run(f, Config{Topo: cfg.Topo, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Run(f, Config{Topo: cfg.Topo, Seed: 11}, map[string]*layout.Layout{"item": lay})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cycles >= before.Cycles {
		t.Fatalf("suggested layout did not help: before=%d after=%d", before.Cycles, after.Cycles)
	}
}

// TestCollectInject checks that a fault spec on the config perturbs the
// collected artifacts, and that the identity spec leaves them untouched.
func TestCollectInject(t *testing.T) {
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 5}
	clean, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := faults.ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inject = zero
	same, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Trace.Samples) != len(clean.Trace.Samples) {
		t.Fatalf("identity spec changed the trace: %d vs %d samples",
			len(same.Trace.Samples), len(clean.Trace.Samples))
	}
	lossy, err := faults.ParseSpec("loss=0.8,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inject = lossy
	faulted, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted.Trace.Samples) >= len(clean.Trace.Samples) {
		t.Fatalf("loss=0.8 did not shrink the trace: %d vs %d samples",
			len(faulted.Trace.Samples), len(clean.Trace.Samples))
	}
}

// TestAnalysisOptionsNilSpec: a nil fault spec, which Config.Inject
// documents as no faults, gives the clean spec's options.
func TestAnalysisOptionsNilSpec(t *testing.T) {
	f := parseDemo(t)
	got := AnalysisOptions(f, 128, 1000, nil, false)
	want := AnalysisOptions(f, 128, 1000, faults.New(1), false)
	if !reflect.DeepEqual(got.FMF, want.FMF) {
		t.Fatalf("nil spec FMF differs from the clean spec's:\n%+v\nwant\n%+v", got.FMF, want.FMF)
	}
}

// TestRunInject checks that the fault spec applies on the collection
// boundary: a collection comes back faulted, while the measurement loop
// stays clean (throughput is simulated, not collected, so a spec on the
// config must not change what MeasureCtx reports).
func TestRunInject(t *testing.T) {
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 5}
	clean, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := faults.ParseSpec("loss=0.8,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inject = lossy
	faulted, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted.Trace.Samples) >= len(clean.Trace.Samples) {
		t.Fatalf("collection ignored the fault spec: %d vs %d samples",
			len(faulted.Trace.Samples), len(clean.Trace.Samples))
	}

	mcfg := Config{Topo: machine.Bus4(), Seed: 3}
	base, err := MeasureCtx(context.Background(), f, mcfg, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	mcfg.Inject = lossy
	under, err := MeasureCtx(context.Background(), f, mcfg, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if base.Mean != under.Mean {
		t.Fatalf("fault spec leaked into the measurement loop: %v vs %v", base.Mean, under.Mean)
	}
}

// TestMeasureDeterministicAcrossWorkers runs the same measurement serially
// and with a worker pool: identical per-run throughputs are the contract
// the experiment tables rely on.
func TestMeasureDeterministicAcrossWorkers(t *testing.T) {
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 3}
	old := parallel.Limit()
	defer parallel.SetLimit(old)

	parallel.SetLimit(1)
	serial, err := MeasureCtx(context.Background(), f, cfg, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetLimit(4)
	par, err := MeasureCtx(context.Background(), f, cfg, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Runs) != len(par.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(par.Runs))
	}
	for i := range serial.Runs {
		if serial.Runs[i] != par.Runs[i] {
			t.Fatalf("run %d differs: serial %v parallel %v", i, serial.Runs[i], par.Runs[i])
		}
	}
	if serial.Mean != par.Mean {
		t.Fatalf("means differ: %v vs %v", serial.Mean, par.Mean)
	}
}

// TestEvaluateMultiStruct exercises the multi-struct measurement loop: each
// declared struct's variant is applied alone and rows come back in sorted
// struct order.
func TestEvaluateMultiStruct(t *testing.T) {
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 3}
	base, err := OriginalLayouts(f, cfg.LineSize())
	if err != nil {
		t.Fatal(err)
	}
	// The variant reverses conn's declaration order.
	st := f.Prog.Struct("conn")
	perm := make([]int, len(st.Fields))
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	rev, err := layout.FromOrder(st, "reversed", perm, cfg.LineSize())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateCtx(context.Background(), f, cfg, base, map[string]*layout.Layout{"conn": rev}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Baseline.Mean <= 0 {
		t.Fatalf("non-positive baseline: %v", ev.Baseline.Mean)
	}
	if len(ev.Structs) != 1 || ev.Structs[0].Struct != "conn" {
		t.Fatalf("unexpected rows: %+v", ev.Structs)
	}
	if ev.Structs[0].Mean <= 0 {
		t.Fatalf("non-positive variant mean: %+v", ev.Structs[0])
	}
}

// TestMeasureMemoized: a repeated Measure call with an identical
// configuration is served from the shared cache (no recomputation), and a
// different layout or seed misses.
func TestMeasureMemoized(t *testing.T) {
	f := parseDemo(t)
	cfg := Config{Topo: machine.Bus4(), Seed: 41}
	memo.Shared().Clear()
	before := memo.Shared().Stats()
	m1, err := MeasureCtx(context.Background(), f, cfg, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MeasureCtx(context.Background(), f, cfg, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := memo.Shared().Stats().Sub(before)
	if d.Hits() == 0 {
		t.Fatalf("second identical MeasureCtx did not hit the cache: %+v", d)
	}
	if m1.Mean != m2.Mean || len(m1.Runs) != len(m2.Runs) {
		t.Fatalf("cached measurement differs: %v vs %v", m1, m2)
	}
	// A different seed must not be served from the same entry.
	cfg2 := cfg
	cfg2.Seed = 42
	m3, err := MeasureCtx(context.Background(), f, cfg2, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Mean == m1.Mean {
		t.Log("different seed produced an equal mean (possible but unlikely); key separation is asserted below")
	}
	key := func(cfg Config, layouts map[string]*layout.Layout) (memo.Key, bool) {
		cfg.fillDefaults()
		return workload.MeasureKey("driver.measure", f, cfg.Topo, cfg.Cache, cfg.Seed, layouts, 3)
	}
	k1, ok1 := key(cfg, nil)
	k2, ok2 := key(cfg2, nil)
	if !ok1 || !ok2 || k1 == k2 {
		t.Fatal("seed change did not change the measurement key")
	}
	if !memo.Shared().Contains(k1) || !memo.Shared().Contains(k2) {
		t.Fatal("MeasureCtx cached its cells under other keys")
	}
	// A layout change must change the key too.
	st := f.Prog.Struct("conn")
	alt, err := layout.PackClusters(st, "alt", [][]int{{4, 3, 2, 1, 0}}, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	k3, ok3 := key(cfg, map[string]*layout.Layout{"conn": alt})
	if !ok3 || k3 == k1 {
		t.Fatal("layout change did not change the measurement key")
	}
	// Unkeyable configurations degrade to direct computation.
	if _, ok := key(Config{}, nil); ok {
		t.Fatal("nil topology should not produce a key")
	}
	if _, ok := workload.MeasureKey("driver.measure", &irtext.File{}, cfg.Topo, coherence.DefaultItanium(), 1, nil, 3); ok {
		t.Fatal("nil program should not produce a key")
	}
}

// multiArenaProgram declares three arenas whose instance counts differ, so
// the address each arena lands at — and with it the cache set every
// instance maps to — depends on the order Run defines them in.
const multiArenaProgram = `
program arenas

struct a { a_x i64  a_y i64 }
struct b { b_x i64 }
struct c { c_x i64  c_y i64 }

proc sweep {
    loop 5 {
        read a.a_x loopvar
        write a.a_y loopvar
        compute 5
    }
    loop 3 {
        write b.b_x loopvar
        compute 5
    }
    loop 7 {
        read c.c_x loopvar
        write c.c_y loopvar
        compute 5
    }
}

arena a 5
arena b 3
arena c 7
thread 0 sweep iters 20
thread 1 sweep iters 20
`

// TestMultiArenaCollectDeterministic: a program declaring several arenas
// collects identically every time — cycles, coherence counters and trace —
// and both an uncollected run and the memoized collection agree with a
// fresh one. Arenas defined in map iteration order broke this on a small
// cache.
func TestMultiArenaCollectDeterministic(t *testing.T) {
	f, err := irtext.Parse(multiArenaProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 1}
	encodeTrace := func(tr *sampling.Trace) string {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, err := Collect(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTrace := encodeTrace(first.Trace)
	for i := 1; i < 50; i++ {
		res, err := Collect(f, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != first.Cycles || res.Coherence != first.Coherence {
			t.Fatalf("collection %d: %d cycles %+v, first %d cycles %+v",
				i, res.Cycles, res.Coherence, first.Cycles, first.Coherence)
		}
		if encodeTrace(res.Trace) != wantTrace {
			t.Fatalf("collection %d: trace differs from the first", i)
		}
	}
	// The collector only observes: an uncollected run with the same seed
	// simulates the same execution.
	plain, err := Run(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != first.Cycles || plain.Coherence != first.Coherence {
		t.Fatalf("uncollected run: %d cycles %+v, collected %d cycles %+v",
			plain.Cycles, plain.Coherence, first.Cycles, first.Coherence)
	}
	memo.Shared().Clear()
	for pass := 0; pass < 2; pass++ { // cold, then a memory-tier hit
		_, tr, cycles, err := CollectCached(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != first.Cycles || encodeTrace(tr) != wantTrace {
			t.Fatalf("cached pass %d: %d cycles, want %d (trace equal: %v)",
				pass, cycles, first.Cycles, encodeTrace(tr) == wantTrace)
		}
	}
}

// TestMemoKeyPins pins the measure and collect keys of the shipped DSL
// example under layouttool's defaults. A moved key orphans every disk-cache
// entry written under the old one, so a pin changes only together with
// memo.SchemaVersion.
func TestMemoKeyPins(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "dslprogram", "webserver.slp"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: machine.Bus4(), Seed: 20070311}
	cfg.fillDefaults()
	base, err := OriginalLayouts(f, cfg.LineSize())
	if err != nil {
		t.Fatal(err)
	}
	mk, ok := workload.MeasureKey("driver.measure", f, cfg.Topo, cfg.Cache, cfg.Seed, base, 2)
	if !ok {
		t.Fatal("webserver.slp measurement has no key")
	}
	ck, ok := workload.CollectKey(f, cfg.Topo, cfg.Cache, cfg.Seed, nil, nil)
	if !ok {
		t.Fatal("webserver.slp collection has no key")
	}
	got := map[string]string{"measure": fmt.Sprintf("%x", mk[:]), "collect": fmt.Sprintf("%x", ck[:])}
	want := map[string]string{
		"measure": "b8134758aec9679f0e312978724d102bbe90685c0a1f76e1716376de9484fd9c",
		"collect": "9d31386de6e3a02677ae67549eb1a8e8dcbee571280eb3deef49775aeb6fdb31",
	}
	for kind, k := range got {
		if k != want[kind] {
			t.Errorf("%s key %s, pinned %s", kind, k, want[kind])
		}
	}
}

// TestRunSuiteFile: the built-in suite's harness runs through Run and
// Collect like any parsed file, with results identical to the suite's own
// RunOnce, exact and under the collection sampler.
func TestRunSuiteFile(t *testing.T) {
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	topo := machine.Bus4()
	base := suite.BaselineLayouts(int(suite.Params.Cache.LineSize))
	const seed = 20070311
	smp := workload.CollectSampling(seed)
	for _, c := range []struct {
		name     string
		run      func(*irtext.File, Config, map[string]*layout.Layout) (*exec.Result, error)
		sampling *sampling.Config
	}{{"exact", Run, nil}, {"collect", Collect, &smp}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Topo: topo, Cache: suite.Params.Cache, Seed: seed}
			got, err := c.run(suite.File(topo), cfg, suite.StructLayouts(base))
			if err != nil {
				t.Fatal(err)
			}
			want, err := suite.RunOnce(topo, base, seed, c.sampling)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Run of the suite's file: %d cycles %+v, RunOnce: %d cycles %+v",
					got.Cycles, got.Coherence, want.Cycles, want.Coherence)
			}
		})
	}
}
