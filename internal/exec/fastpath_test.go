package exec

import (
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/machine"
	"structlayout/internal/sampling"
)

// buildMixedWorkload builds a program exercising every opcode the flat
// code can see: long compute runs (merge fodder), field reads/writes on
// shared and per-CPU instances, contended locks, calls, region sweeps and
// random probes, probabilistic branches and nested loops.
func buildMixedWorkload(ncpu int) (*ir.Program, *ir.StructType, []string) {
	p := ir.NewProgram("mixed")
	s := ir.NewStruct("M",
		ir.I64("lock"),
		ir.I64("hot"),
		ir.I64("warm"),
		ir.I64("cold"),
	)
	p.AddStruct(s)
	p.AddRegion("buf", 16<<10, false)
	p.AddRegion("priv", 8<<10, true)

	h := p.NewProc("helper")
	h.Compute(5).Read(s, "warm", ir.Shared(0)).Compute(7).Compute(11)
	h.Done()

	names := make([]string, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		name := "mix" + string(rune('A'+cpu))
		b := p.NewProc(name)
		b.Compute(20).Compute(30).Compute(50) // merged into one compute
		b.Loop(40, func(b *ir.Builder) {
			b.Lock(s, "lock", ir.Shared(0))
			b.Write(s, "hot", ir.Shared(0))
			b.Compute(15).Compute(25)
			b.Unlock(s, "lock", ir.Shared(0))
			b.IfElse(0.3, func(b *ir.Builder) {
				b.MemSweep("buf", ir.Write, 64)
				b.Compute(9)
			}, func(b *ir.Builder) {
				b.MemRandom("priv", ir.Read)
				b.Call("helper")
			})
			b.Read(s, "cold", ir.PerCPU())
			b.Write(s, "cold", ir.PerCPU())
		})
		b.MemAt("buf", ir.Read, 128)
		b.Done()
		names[cpu] = name
	}
	return p.MustFinalize(), s, names
}

// runMixed executes the mixed workload with the fast path on or off.
func runMixed(t *testing.T, slow bool, smp *sampling.Config) *Result {
	t.Helper()
	p, s, names := buildMixedWorkload(4)
	r, err := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 7, Sampling: smp})
	if err != nil {
		t.Fatal(err)
	}
	r.slowPath = slow
	if err := r.DefineArena(origLayout(t, s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu, name := range names {
		if err := r.AddThread(cpu, name, nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFastPathEquivalence: the flat code must produce a Result identical
// in every observable — cycles, per-thread finish times, profile counts,
// coherence counters, per-field statistics — to the reference
// one-instruction-per-step interpreter.
func TestFastPathEquivalence(t *testing.T) {
	fast := runMixed(t, false, nil)
	slow := runMixed(t, true, nil)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path diverges from reference interpreter:\nfast: cycles=%d completed=%d coh=%+v\nslow: cycles=%d completed=%d coh=%+v",
			fast.Cycles, fast.Completed, fast.Coherence,
			slow.Cycles, slow.Completed, slow.Coherence)
	}
}

// TestFastPathEquivalenceSampled: with a collector attached, compute
// merging is disabled but the flat code still runs; traces must match
// sample for sample.
func TestFastPathEquivalenceSampled(t *testing.T) {
	smp := func() *sampling.Config {
		return &sampling.Config{IntervalCycles: 500, DriftMaxCycles: 4, LossProb: 0.05, Seed: 11}
	}
	fast := runMixed(t, false, smp())
	slow := runMixed(t, true, smp())
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("sampled fast path diverges: fast %d samples / %d cycles, slow %d samples / %d cycles",
			len(fast.Trace.Samples), fast.Cycles, len(slow.Trace.Samples), slow.Cycles)
	}
}

// TestMergeComputes checks the decode-time coalescing directly.
func TestMergeComputes(t *testing.T) {
	ds := []decInstr{
		{op: ir.OpCompute, cycles: 3},
		{op: ir.OpCompute, cycles: 4},
		{op: ir.OpField},
		{op: ir.OpCompute, cycles: 5},
		{op: ir.OpCompute, cycles: 6},
		{op: ir.OpCompute, cycles: 7},
		{op: ir.OpCall},
	}
	got := mergeComputes(ds)
	if len(got) != 4 {
		t.Fatalf("merged to %d instrs, want 4", len(got))
	}
	if got[0].cycles != 7 || got[2].cycles != 18 {
		t.Fatalf("merged cycles = %d, %d; want 7, 18", got[0].cycles, got[2].cycles)
	}
	if got[1].op != ir.OpField || got[3].op != ir.OpCall {
		t.Fatal("non-compute instructions moved")
	}
}
