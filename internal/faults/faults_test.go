package faults

import (
	"testing"

	"structlayout/internal/fieldmap"
	"structlayout/internal/ir"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// testTrace builds a clean, monotone per-CPU trace.
func testTrace(nCPU, perCPU int) *sampling.Trace {
	t := &sampling.Trace{IntervalCycles: 100, NumCPUs: nCPU}
	for i := 0; i < perCPU; i++ {
		for cpu := 0; cpu < nCPU; cpu++ {
			t.Samples = append(t.Samples, sampling.Sample{
				CPU:   cpu,
				ITC:   int64((i + 1) * 100),
				Block: ir.BlockID(i % 3),
			})
		}
	}
	return t
}

func testProgram(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram("faults")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"), ir.I64("c"))
	p.AddStruct(s)
	for _, proc := range []string{"f", "g", "h", "k"} {
		b := p.NewProc(proc)
		b.Read(s, "a", ir.Shared(0))
		b.Write(s, "b", ir.Shared(0))
		b.Loop(4, func(b *ir.Builder) {
			b.Read(s, "b", ir.Shared(0))
			b.Write(s, "c", ir.Shared(0))
		})
		b.Done()
	}
	p.MustFinalize()
	return p
}

func testProfile(n int) *profile.Profile {
	pf := &profile.Profile{ProgramName: "faults", Blocks: make([]float64, n)}
	for i := range pf.Blocks {
		pf.Blocks[i] = float64(10 * (i + 1))
	}
	return pf
}

func sameSamples(a, b []sampling.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
		check   func(*Spec) bool
	}{
		{"", false, func(s *Spec) bool { return s.IsZero() }},
		{"none", false, func(s *Spec) bool { return s.IsZero() }},
		{"drift=0.5", false, func(s *Spec) bool { return s.Severity[Drift] == 0.5 && !s.IsZero() }},
		{"drift=0.5,loss=0.3,seed=7", false, func(s *Spec) bool {
			return s.Severity[Drift] == 0.5 && s.Severity[Loss] == 0.3 && s.Seed == 7
		}},
		{"all=0.25", false, func(s *Spec) bool {
			for _, k := range Kinds {
				if s.Severity[k] != 0.25 {
					return false
				}
			}
			return true
		}},
		{" drift = 0.5 , seed = 3 ", false, func(s *Spec) bool { return s.Severity[Drift] == 0.5 && s.Seed == 3 }},
		{"drift", true, nil},
		{"drift=", true, nil},
		{"drift=x", true, nil},
		{"drift=1.5", true, nil},
		{"drift=-0.1", true, nil},
		{"loss=NaN", true, nil},
		{"bogus=0.5", true, nil},
		{"seed=abc", true, nil},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %v", c.in, spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if !c.check(spec) {
			t.Errorf("ParseSpec(%q): unexpected spec %v", c.in, spec)
		}
	}
}

// FuzzFaultSpec: ParseSpec, the parser behind -inject and layoutd's
// inject field, never panics, accepts only severities in [0,1], and its
// canonical form is a fixed point. Seeds are the specs the docs and CI use.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"", "none", "all=1", "all=0.25", "all=0.5", "all=0.5,seed=9",
		"loss=0.5,drift=0.3,seed=7", "loss=1,truncate=1", "loss=0.3,seed=7",
		"loss=0.3,dup=0.05", "all=0.1,seed=20070311", "all=0.25,seed=20070311",
		"drift=0.5,loss=0.25,fmfdrop=0.125,seed=99", "loss=NaN", "loss=2", "seed=x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		for k, sev := range spec.Severity {
			if !(sev >= 0 && sev <= 1) {
				t.Fatalf("ParseSpec(%q) accepted %s=%v", s, k, sev)
			}
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", s, canon, got)
		}
	})
}

func TestSpecStringRoundTrip(t *testing.T) {
	spec, err := ParseSpec("drift=0.5,loss=0.25,fmfdrop=0.125,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", spec.String(), err)
	}
	if again.Seed != spec.Seed || len(again.Severity) != len(spec.Severity) {
		t.Fatalf("round trip changed spec: %q vs %q", spec, again)
	}
	for k, v := range spec.Severity {
		if again.Severity[k] != v {
			t.Fatalf("round trip changed %s: %v vs %v", k, v, again.Severity[k])
		}
	}
	if New(1).String() != "none" {
		t.Fatalf("identity spec renders %q", New(1).String())
	}
}

// Severity 0 must be the exact identity on every input type: the robustness
// sweep's first point has to reproduce the clean pipeline bit-for-bit.
func TestZeroSeverityIsIdentity(t *testing.T) {
	spec := New(42)
	tr := testTrace(4, 50)
	if got := spec.ApplyTrace(tr); got != tr {
		t.Fatal("zero-severity ApplyTrace did not return its input")
	}
	pf := testProfile(8)
	if got := spec.ApplyProfile(pf); got != pf {
		t.Fatal("zero-severity ApplyProfile did not return its input")
	}
	p := testProgram(t)
	f := fieldmap.Build(p)
	if got := spec.ApplyFMF(f, p); got != f {
		t.Fatal("zero-severity ApplyFMF did not return its input")
	}
	if got := spec.Scale(0.5).ApplyTrace(tr); got != tr {
		t.Fatal("scaled identity spec is not the identity")
	}
}

func TestApplyTraceDeterministicAndNonMutating(t *testing.T) {
	spec, err := ParseSpec("all=0.5,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(4, 100)
	before := append([]sampling.Sample(nil), tr.Samples...)
	a := spec.ApplyTrace(tr)
	b := spec.ApplyTrace(tr)
	if !sameSamples(tr.Samples, before) {
		t.Fatal("ApplyTrace mutated its input")
	}
	if !sameSamples(a.Samples, b.Samples) {
		t.Fatal("same spec, same input, different output")
	}
	if sameSamples(a.Samples, before) {
		t.Fatal("severity 0.5 left the trace untouched")
	}
}

func TestIndependentStreams(t *testing.T) {
	// Adding a second kind must not change the first kind's decisions in a
	// way that severity alone does not: loss at 0.5 drops the same samples
	// whether or not drift is also active (drift changes ITCs, not the
	// drop pattern).
	tr := testTrace(2, 200)
	lossOnly, _ := ParseSpec("loss=0.5,seed=5")
	both, _ := ParseSpec("loss=0.5,drift=1,seed=5")
	a := lossOnly.ApplyTrace(tr)
	b := both.ApplyTrace(tr)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("drift changed loss decisions: %d vs %d samples", len(a.Samples), len(b.Samples))
	}
}

func TestLossReducesSamples(t *testing.T) {
	tr := testTrace(4, 200)
	for _, sev := range []float64{0.25, 0.5, 0.9} {
		spec := New(3)
		spec.Severity[Loss] = sev
		out := spec.ApplyTrace(tr)
		if len(out.Samples) >= len(tr.Samples) {
			t.Fatalf("loss %v did not drop samples (%d -> %d)", sev, len(tr.Samples), len(out.Samples))
		}
		frac := 1 - float64(len(out.Samples))/float64(len(tr.Samples))
		if frac < sev/4 || frac > sev*2.5 {
			t.Errorf("loss %v dropped fraction %.2f, far from target", sev, frac)
		}
	}
}

func TestMisattrStaysInRange(t *testing.T) {
	tr := testTrace(4, 100)
	spec := New(9)
	spec.Severity[Misattr] = 1
	out := spec.ApplyTrace(tr)
	if len(out.Samples) != len(tr.Samples) {
		t.Fatal("misattribution changed the sample count")
	}
	moved := 0
	for i, smp := range out.Samples {
		if smp.CPU < 0 || smp.CPU >= tr.NumCPUs {
			t.Fatalf("sample %d misattributed to CPU %d outside [0,%d)", i, smp.CPU, tr.NumCPUs)
		}
		if smp.CPU != tr.Samples[i].CPU {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("severity-1 misattribution moved nothing")
	}
}

func TestDupGrowsTrace(t *testing.T) {
	tr := testTrace(2, 200)
	spec := New(7)
	spec.Severity[Dup] = 1
	out := spec.ApplyTrace(tr)
	if len(out.Samples) <= len(tr.Samples) {
		t.Fatalf("dup added nothing (%d -> %d)", len(tr.Samples), len(out.Samples))
	}
	if len(out.Samples) > 2*len(tr.Samples) {
		t.Fatalf("dup more than doubled the trace (%d -> %d)", len(tr.Samples), len(out.Samples))
	}
}

func TestTruncateKeepsPrefix(t *testing.T) {
	tr := testTrace(1, 100)
	spec := New(5)
	spec.Severity[Truncate] = 1
	out := spec.ApplyTrace(tr)
	if len(out.Samples) != 10 {
		t.Fatalf("severity-1 truncation kept %d samples, want the 10%% stub", len(out.Samples))
	}
	if !sameSamples(out.Samples, tr.Samples[:10]) {
		t.Fatal("truncation did not keep a prefix")
	}
}

func TestDriftSkewsPerCPU(t *testing.T) {
	tr := testTrace(4, 50)
	spec := New(21)
	spec.Severity[Drift] = 1
	out := spec.ApplyTrace(tr)
	changed := 0
	for i := range out.Samples {
		if out.Samples[i].ITC != tr.Samples[i].ITC {
			changed++
		}
		if out.Samples[i].CPU != tr.Samples[i].CPU || out.Samples[i].Block != tr.Samples[i].Block {
			t.Fatal("drift must only touch timestamps")
		}
	}
	if changed == 0 {
		t.Fatal("severity-1 drift changed no timestamps")
	}
}

func TestReorderPreservesMultiset(t *testing.T) {
	tr := testTrace(4, 100)
	spec := New(13)
	spec.Severity[Reorder] = 1
	out := spec.ApplyTrace(tr)
	if len(out.Samples) != len(tr.Samples) {
		t.Fatal("reorder changed the sample count")
	}
	count := make(map[sampling.Sample]int)
	for _, smp := range tr.Samples {
		count[smp]++
	}
	for _, smp := range out.Samples {
		count[smp]--
	}
	for smp, n := range count {
		if n != 0 {
			t.Fatalf("reorder changed sample content: %+v off by %d", smp, n)
		}
	}
	if sameSamples(out.Samples, tr.Samples) {
		t.Fatal("severity-1 reorder left the order unchanged")
	}
}

func TestApplyProfileCorruptsCopy(t *testing.T) {
	pf := testProfile(32)
	spec := New(17)
	spec.Severity[ProfCorrupt] = 1
	out := spec.ApplyProfile(pf)
	for i, v := range pf.Blocks {
		if v != float64(10*(i+1)) {
			t.Fatal("ApplyProfile mutated its input")
		}
	}
	changed := 0
	for i := range out.Blocks {
		if out.Blocks[i] != pf.Blocks[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("severity-1 corruption changed no counts")
	}
	again := spec.ApplyProfile(pf)
	for i := range out.Blocks {
		if out.Blocks[i] != again.Blocks[i] {
			t.Fatal("profile corruption is not deterministic")
		}
	}
}

func TestApplyFMFDropsLines(t *testing.T) {
	p := testProgram(t)
	f := fieldmap.Build(p)
	if len(f.Lines) == 0 {
		t.Fatal("test program produced an empty FMF")
	}
	spec := New(23)
	spec.Severity[FMFDrop] = 1
	out := spec.ApplyFMF(f, p)
	if len(out.Lines) != 0 {
		t.Fatalf("severity-1 fmfdrop kept %d lines", len(out.Lines))
	}
	if len(f.Lines) == 0 {
		t.Fatal("ApplyFMF mutated its input")
	}

	spec.Severity[FMFDrop] = 0.5
	half := spec.ApplyFMF(f, p)
	if len(half.Lines) >= len(f.Lines) {
		t.Fatalf("severity-0.5 fmfdrop kept all %d lines", len(half.Lines))
	}
	again := spec.ApplyFMF(f, p)
	if len(again.Lines) != len(half.Lines) {
		t.Fatal("fmfdrop is not deterministic")
	}
}

func TestScaleClamps(t *testing.T) {
	spec := New(1)
	spec.Severity[Drift] = 0.6
	spec.Severity[Loss] = 0.2
	up := spec.Scale(10)
	if up.Severity[Drift] != 1 || up.Severity[Loss] != 1 {
		t.Fatalf("Scale(10) did not clamp to 1: %v", up.Severity)
	}
	down := spec.Scale(0.5)
	if down.Severity[Drift] != 0.3 || down.Severity[Loss] != 0.1 {
		t.Fatalf("Scale(0.5) wrong: %v", down.Severity)
	}
	if !spec.Scale(0).IsZero() {
		t.Fatal("Scale(0) is not the identity")
	}
	if up.Seed != spec.Seed {
		t.Fatal("Scale changed the seed")
	}
}
