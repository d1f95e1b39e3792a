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

// runMixed executes the mixed workload on the flat code, or on the
// reference interpreter when slow is set.
func runMixed(t *testing.T, slow bool, smp *sampling.Config) *Result {
	t.Helper()
	p, s, names := buildMixedWorkload(4)
	r, err := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 7, Sampling: smp})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu, name := range names {
		if err := r.AddThread(cpu, name, nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	run := r.Run
	if slow {
		run = func() (*Result, error) { return RunReference(r) }
	}
	res, err := run()
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

// TestMergeComputes checks the lowering-time coalescing directly: with
// no collector, consecutive computes of a block lower to one cCompute,
// and a field access or a call keeps the runs on either side apart; with
// a collector attached, every compute stays.
func TestMergeComputes(t *testing.T) {
	p := ir.NewProgram("merge")
	s := ir.NewStruct("S", ir.I64("f"))
	p.AddStruct(s)
	p.NewProc("callee").Compute(1).Done()
	p.NewProc("main").Compute(3).Compute(4).Read(s, "f", ir.Shared(0)).Compute(5).Compute(6).Compute(7).Call("callee").Done()
	prog := p.MustFinalize()
	for _, c := range []struct {
		name string
		smp  *sampling.Config
		want []int64 // cycles of main's cCompute instructions, in order
	}{
		{"exact", nil, []int64{7, 18}},
		{"collect", &sampling.Config{IntervalCycles: 100, Seed: 1}, []int64{3, 4, 5, 6, 7}},
	} {
		r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Sampling: c.smp})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.DefineArena(origLayout(t, s), 1); err != nil {
			t.Fatal(err)
		}
		if err := r.AddThread(0, "main", nil, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.start(); err != nil {
			t.Fatal(err)
		}
		r.lower()
		var got []int64
		var ops []codeOp
		for pc := r.threads[0].entryPC; r.code[pc].op != cRet; pc++ {
			if in := r.code[pc]; in.op == cCompute {
				got = append(got, in.cycles)
			} else if in.op == cField || in.op == cCall {
				ops = append(ops, in.op)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: compute cycles %v, want %v", c.name, got, c.want)
		}
		if !reflect.DeepEqual(ops, []codeOp{cField, cCall}) {
			t.Errorf("%s: non-compute instructions %v, want field then call", c.name, ops)
		}
	}
}
