package exec

import (
	"math"
	"reflect"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/machine"
	"structlayout/internal/sampling"
)

// runWorkload executes a built workload on Bus4 under the given
// simulation mode.
func runWorkload(t *testing.T, prog *ir.Program, s *ir.StructType, names []string, sim SimConfig) *Result {
	t.Helper()
	r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 7, Sim: sim})
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
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSampledWithinBound: sampled mode must skip a real fraction of
// accesses, report its sampling parameters, and extrapolate the miss count
// to within the documented bound of the exact run (15% relative on this
// workload, far looser than the binomial CI alone because misses cluster).
func TestSampledWithinBound(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	exact := runWorkload(t, prog, s, names, SimConfig{})
	if exact.Sampled != nil {
		t.Fatal("exact run carries SampledInfo")
	}
	sampled := runWorkload(t, prog, s, names, SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4})
	info := sampled.Sampled
	if info == nil {
		t.Fatal("sampled run missing SampledInfo")
	}
	if info.SkippedOps == 0 || info.Scale <= 1 {
		t.Fatalf("sampling skipped nothing: %+v", info)
	}
	if sampled.Completed != exact.Completed {
		t.Fatalf("sampled completed %d, exact %d", sampled.Completed, exact.Completed)
	}
	relErr := func(got, want uint64) float64 {
		return math.Abs(float64(got)-float64(want)) / float64(want)
	}
	if e := relErr(info.Extrapolated.Misses(), exact.Coherence.Misses()); e > 0.15 {
		t.Fatalf("extrapolated misses %d vs exact %d: %.1f%% error",
			info.Extrapolated.Misses(), exact.Coherence.Misses(), 100*e)
	}
	if e := relErr(info.Extrapolated.Accesses, exact.Coherence.Accesses); e > 0.05 {
		t.Fatalf("extrapolated accesses %d vs exact %d: %.1f%% error",
			info.Extrapolated.Accesses, exact.Coherence.Accesses, 100*e)
	}
	cyc := math.Abs(float64(sampled.Cycles)-float64(exact.Cycles)) / float64(exact.Cycles)
	if cyc > 0.15 {
		t.Fatalf("sampled cycles %d vs exact %d: %.1f%% error", sampled.Cycles, exact.Cycles, 100*cyc)
	}
	if info.MissCI95 <= 0 {
		t.Fatalf("missing confidence interval: %+v", info)
	}
}

// TestSampledDeterministic: identical sampled configs replay identical
// results.
func TestSampledDeterministic(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	sim := SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4}
	a := runWorkload(t, prog, s, names, sim)
	b := runWorkload(t, prog, s, names, sim)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampled run not deterministic")
	}
	// Different sampling seed: same structure, different subset.
	c := runWorkload(t, prog, s, names, SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4, Seed: 99})
	if c.Completed != a.Completed {
		t.Fatalf("seed changed completion: %d vs %d", c.Completed, a.Completed)
	}
}

// TestSampledSlowPathEquivalence: the gate and the off-window skip must act
// identically in the flat code and the one-step reference interpreter.
func TestSampledSlowPathEquivalence(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	sim := SimConfig{Mode: SimSampled, WindowOps: 1 << 7, Period: 4}
	run := func(slow bool) *Result {
		cache := coherence.SmallCache()
		r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: cache, Seed: 7, Sim: sim})
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
	if fast, slow := run(false), run(true); !reflect.DeepEqual(fast, slow) {
		t.Fatalf("sampled fast path diverges from reference: %+v vs %+v", fast.Coherence, slow.Coherence)
	}
}

// TestSampledRejectsCollector: PMU collection needs every access; the
// combination must fail loudly, not silently degrade the trace.
func TestSampledRejectsCollector(t *testing.T) {
	prog, s, names := buildMixedWorkload(4)
	smp := &sampling.Config{IntervalCycles: 500, Seed: 11}
	r, err := NewRunner(prog, Config{Topo: machine.Bus4(), Cache: coherence.SmallCache(), Seed: 7, Sampling: smp, Sim: SimConfig{Mode: SimSampled}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineArena(origLayout(t, s), 4); err != nil {
		t.Fatal(err)
	}
	for cpu, name := range names {
		if err := r.AddThread(cpu, name, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("sampled+collector run succeeded; want error")
	}
}

// TestParseSimMode covers the flag surface.
func TestParseSimMode(t *testing.T) {
	for in, want := range map[string]SimMode{"": SimExact, "exact": SimExact, "sampled": SimSampled} {
		got, err := ParseSimMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSimMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSimMode("fast"); err == nil {
		t.Fatal("ParseSimMode accepted garbage")
	}
	if SimExact.String() != "exact" || SimSampled.String() != "sampled" {
		t.Fatal("SimMode.String mismatch")
	}
}
