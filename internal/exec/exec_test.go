package exec

import (
	"fmt"
	"strings"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// origLayout builds the declaration-order layout at a 128-byte line,
// failing the test on error.
func origLayout(t testing.TB, st *ir.StructType) *layout.Layout {
	t.Helper()
	l, err := layout.Original(st, 128)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func i64f(i int) ir.Field { return ir.I64(fmt.Sprintf("f%02d", i)) }

// buildCounterWorkload builds per-CPU procedures each hammering its own
// counter field of the one shared instance — the canonical false-sharing
// workload.
func buildCounterWorkload(ncpu int, iters int64) (*ir.Program, *ir.StructType, []string) {
	p := ir.NewProgram("counters")
	fields := make([]ir.Field, ncpu)
	for i := range fields {
		fields[i] = i64f(i)
	}
	s := ir.NewStruct("Ctr", fields...)
	p.AddStruct(s)
	names := make([]string, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		name := procName(cpu)
		b := p.NewProc(name)
		fi := cpu
		b.Loop(iters, func(b *ir.Builder) {
			b.ReadI(s, fi, ir.Shared(0))
			b.WriteI(s, fi, ir.Shared(0))
		})
		b.Done()
		names[cpu] = name
	}
	return p.MustFinalize(), s, names
}

func procName(cpu int) string {
	return "worker" + string(rune('A'+cpu))
}

func runCounters(t *testing.T, lay func(*ir.StructType) *layout.Layout, topo *machine.Topology, ncpu int) *Result {
	t.Helper()
	p, s, names := buildCounterWorkload(ncpu, 2000)
	r, err := NewRunner(p, Config{Topo: topo, Cache: coherence.DefaultItanium(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(lay(s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		if err := r.AddThread(cpu, names[cpu], nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFalseSharingCostsCycles(t *testing.T) {
	topo := machine.Superdome128()
	// Dense layout: all four counters in one 128B line.
	dense := func(s *ir.StructType) *layout.Layout { return origLayout(t, s) }
	// Spread layout: one counter per line (every cluster pair separated).
	spread := func(s *ir.StructType) *layout.Layout {
		clusters := make([][]int, len(s.Fields))
		for i := range clusters {
			clusters[i] = []int{i}
		}
		l, err := layout.PackClusters(s, "spread", clusters, 128, func(int, int) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Use 4 CPUs spread across crossbars for maximal coherence cost.
	resDense := runCounters(t, dense, topo, 4)
	resSpread := runCounters(t, spread, topo, 4)

	if resDense.Coherence.FalseSharing == 0 {
		t.Fatal("dense layout produced no false sharing")
	}
	if resSpread.Coherence.FalseSharing != 0 {
		t.Fatalf("spread layout produced %d false-sharing events", resSpread.Coherence.FalseSharing)
	}
	if resDense.Cycles <= 2*resSpread.Cycles {
		t.Fatalf("dense (%d cycles) should be far slower than spread (%d)", resDense.Cycles, resSpread.Cycles)
	}
}

func TestProfileMatchesStaticEstimate(t *testing.T) {
	// Single thread, no branches: measured profile must equal the static
	// estimate exactly.
	p := ir.NewProgram("prof")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Write(s, "a", ir.Shared(0))
	b.Loop(10, func(b *ir.Builder) {
		b.Read(s, "a", ir.Shared(0))
		b.Loop(5, func(b *ir.Builder) {
			b.Write(s, "b", ir.Shared(0))
		})
	})
	b.Done()
	p.MustFinalize()

	r, err := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 1); err != nil {
		t.Fatal(err)
	}
	if err := r.AddThread(0, "main", nil, 1); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := profile.StaticEstimate(p, []string{"main"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Blocks {
		if res.Profile.Blocks[i] != want.Blocks[i] {
			t.Fatalf("block %d: measured %v, static %v", i, res.Profile.Blocks[i], want.Blocks[i])
		}
	}
	if res.Profile.LoopIters[0] != 10 || res.Profile.LoopIters[1] != 50 {
		t.Fatalf("loop iters = %v", res.Profile.LoopIters)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		p, s, names := buildCounterWorkload(4, 500)
		r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 99,
			Sampling: &sampling.Config{IntervalCycles: 1000, DriftMaxCycles: 4, LossProb: 0.05, Seed: 3}})
		_ = r.DefineArena(origLayout(t, s), 1)
		for cpu := 0; cpu < 4; cpu++ {
			_ = r.AddThread(cpu, names[cpu], nil, 2)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Completed != b.Completed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.Completed, b.Cycles, b.Completed)
	}
	if len(a.Trace.Samples) != len(b.Trace.Samples) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace.Samples), len(b.Trace.Samples))
	}
	for i := range a.Trace.Samples {
		if a.Trace.Samples[i] != b.Trace.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestLockSerializes(t *testing.T) {
	p := ir.NewProgram("locks")
	s := ir.NewStruct("L", ir.I64("lock"), ir.I64("data"))
	p.AddStruct(s)
	for cpu := 0; cpu < 4; cpu++ {
		b := p.NewProc(procName(cpu))
		b.Loop(50, func(b *ir.Builder) {
			b.Lock(s, "lock", ir.Shared(0))
			b.Read(s, "data", ir.Shared(0))
			b.Write(s, "data", ir.Shared(0))
			b.Compute(200)
			b.Unlock(s, "lock", ir.Shared(0))
		})
		b.Done()
	}
	p.MustFinalize()

	r, err := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 1); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 4; cpu++ {
		if err := r.AddThread(cpu, procName(cpu), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 4 threads × 50 critical sections × ≥200 cycles must serialize.
	if res.Cycles < 4*50*200 {
		t.Fatalf("cycles = %d; critical sections did not serialize", res.Cycles)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestUnlockWithoutHoldErrors(t *testing.T) {
	p := ir.NewProgram("badlock")
	s := ir.NewStruct("L", ir.I64("lock"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Unlock(s, "lock", ir.Shared(0))
	b.Done()
	p.MustFinalize()

	r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium()})
	_ = r.DefineArena(origLayout(t, s), 1)
	_ = r.AddThread(0, "main", nil, 1)
	if _, err := r.Run(); err == nil {
		t.Fatal("expected unlock-without-hold error")
	}
}

func TestSelfDeadlockErrors(t *testing.T) {
	p := ir.NewProgram("selfdead")
	s := ir.NewStruct("L", ir.I64("lock"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Lock(s, "lock", ir.Shared(0))
	b.Lock(s, "lock", ir.Shared(0))
	b.Done()
	p.MustFinalize()

	r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium()})
	_ = r.DefineArena(origLayout(t, s), 1)
	_ = r.AddThread(0, "main", nil, 1)
	if _, err := r.Run(); err == nil {
		t.Fatal("expected re-acquire error")
	}
}

func TestMissingArenaErrors(t *testing.T) {
	p := ir.NewProgram("noarena")
	s := ir.NewStruct("S", ir.I64("a"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Read(s, "a", ir.Shared(0))
	b.Done()
	p.MustFinalize()

	r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium()})
	_ = r.AddThread(0, "main", nil, 1)
	if _, err := r.Run(); err == nil {
		t.Fatal("expected missing-arena error")
	}
}

func TestThreadValidation(t *testing.T) {
	p := ir.NewProgram("tv")
	b := p.NewProc("main")
	b.Compute(1)
	b.Done()
	p.MustFinalize()
	r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium()})
	if err := r.AddThread(99, "main", nil, 1); err == nil {
		t.Fatal("cpu out of range accepted")
	}
	if err := r.AddThread(0, "ghost", nil, 1); err == nil {
		t.Fatal("unknown proc accepted")
	}
	if err := r.AddThread(0, "main", nil, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if err := r.AddThread(0, "main", nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.AddThread(0, "main", nil, 1); err == nil {
		t.Fatal("duplicate cpu accepted")
	}
}

func TestParamAndPerCPUInstances(t *testing.T) {
	p := ir.NewProgram("inst")
	s := ir.NewStruct("S", ir.I64("a"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Write(s, "a", ir.Param(0))
	b.Write(s, "a", ir.PerCPU())
	b.Loop(3, func(b *ir.Builder) {
		b.Write(s, "a", ir.LoopVar())
	})
	b.Done()
	p.MustFinalize()

	r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 2})
	_ = r.DefineArena(origLayout(t, s), 8)
	if err := r.AddThread(2, "main", []int{5}, 1); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 5 distinct instances touched: param->5, percpu->2, loopvar->0,1,2.
	// All are cold misses (plus hits for re-touch of instance 2).
	fs := res.Fields[FieldRef{Struct: "S", Field: 0}]
	if fs == nil || fs.Accesses != 5 {
		t.Fatalf("field accesses = %+v", fs)
	}
	if fs.Misses != 4 { // instance 2 touched twice: one hit
		t.Fatalf("misses = %d, want 4", fs.Misses)
	}
}

func TestLoopVarOutsideLoopErrors(t *testing.T) {
	p := ir.NewProgram("lv")
	s := ir.NewStruct("S", ir.I64("a"))
	p.AddStruct(s)
	b := p.NewProc("main")
	b.Write(s, "a", ir.LoopVar())
	b.Done()
	p.MustFinalize()
	r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium()})
	_ = r.DefineArena(origLayout(t, s), 1)
	_ = r.AddThread(0, "main", nil, 1)
	if _, err := r.Run(); err == nil {
		t.Fatal("expected loopvar error")
	}
}

func TestSamplingProducesTrace(t *testing.T) {
	p, s, names := buildCounterWorkload(4, 2000)
	r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 4,
		Sampling: &sampling.Config{IntervalCycles: 500, DriftMaxCycles: 3, LossProb: 0, Seed: 8}})
	_ = r.DefineArena(origLayout(t, s), 1)
	for cpu := 0; cpu < 4; cpu++ {
		_ = r.AddThread(cpu, names[cpu], nil, 1)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	cpus := map[int]bool{}
	for _, smp := range res.Trace.Samples {
		cpus[smp.CPU] = true
		if smp.Block < 0 || int(smp.Block) >= p.NumBlocks() {
			t.Fatalf("sample block %d out of range", smp.Block)
		}
	}
	if len(cpus) != 4 {
		t.Fatalf("sampled %d CPUs, want 4", len(cpus))
	}
}

func TestMemRegionTraffic(t *testing.T) {
	p := ir.NewProgram("mem")
	p.AddRegion("buf", 1<<20, false)
	p.AddRegion("priv", 1<<16, true)
	b := p.NewProc("main")
	b.Loop(1000, func(b *ir.Builder) {
		b.MemSweep("buf", ir.Read, 128)
		b.MemRandom("priv", ir.Write)
		b.MemAt("buf", ir.Read, 64)
	})
	b.Done()
	p.MustFinalize()

	r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.SmallCache(), Seed: 6})
	_ = r.AddThread(0, "main", nil, 1)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 3000 instruction-level accesses; random 8-byte accesses may straddle
	// a line boundary and count twice at coherence granularity.
	if res.Coherence.Accesses < 3000 || res.Coherence.Accesses > 3200 {
		t.Fatalf("accesses = %d", res.Coherence.Accesses)
	}
	// The streaming sweep through 1 MiB must evict lines in a small cache.
	if res.Coherence.ReplMisses == 0 {
		t.Fatal("no replacement misses from streaming sweep")
	}
}

func TestRunnerRunsOnce(t *testing.T) {
	p := ir.NewProgram("once")
	b := p.NewProc("main")
	b.Compute(1)
	b.Done()
	p.MustFinalize()
	r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium()})
	_ = r.AddThread(0, "main", nil, 1)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestFalseSharingReport(t *testing.T) {
	p, s, names := buildCounterWorkload(4, 500)
	r, _ := NewRunner(p, Config{Topo: machine.Superdome128(), Cache: coherence.DefaultItanium(), Seed: 2})
	_ = r.DefineArena(origLayout(t, s), 1)
	for cpu := 0; cpu < 4; cpu++ {
		_ = r.AddThread(cpu*32, names[cpu], nil, 1)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.TopFalseSharing(p, 10)
	if len(rows) == 0 {
		t.Fatal("counter ping-pong produced no report rows")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Stat.FalseSharing+rows[i].Stat.CausedFalseSharing > rows[i-1].Stat.FalseSharing+rows[i-1].Stat.CausedFalseSharing {
			t.Fatal("rows not sorted by false sharing")
		}
	}
	if !strings.Contains(rows[0].Name, "Ctr.") {
		t.Fatalf("row name %q lacks struct.field form", rows[0].Name)
	}
	text := res.FalseSharingReport(p, 3)
	if !strings.Contains(text, "fs-victim") || !strings.Contains(text, "Ctr.") {
		t.Fatalf("report malformed:\n%s", text)
	}
	lines := strings.Count(text, "\n")
	if lines != 4 { // header + 3 rows
		t.Fatalf("report has %d lines, want 4:\n%s", lines, text)
	}
}
