package sampling

import (
	"testing"

	"structlayout/internal/diag"
	"structlayout/internal/ir"
)

func testBlocks(t *testing.T) (*ir.Program, []*ir.BasicBlock) {
	t.Helper()
	p := ir.NewProgram("samp")
	s := ir.NewStruct("S", ir.I64("a"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Read(s, "a", ir.Shared(0))
	b.Loop(4, func(b *ir.Builder) { b.Write(s, "a", ir.Shared(0)) })
	b.Done()
	p.MustFinalize()
	return p, p.Blocks()
}

func TestTickEmitsAtInterval(t *testing.T) {
	_, blocks := testBlocks(t)
	c, err := NewCollector(Config{IntervalCycles: 100, DriftMaxCycles: 0, LossProb: 0, Seed: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Advance CPU 0 to t=1000 in one jump: must emit every due sample.
	c.Tick(0, 1000, blocks[1])
	n := len(c.Samples())
	if n < 9 || n > 10 {
		t.Fatalf("got %d samples, want ~10", n)
	}
	for _, s := range c.Samples() {
		if s.CPU != 0 || s.Block != blocks[1].Global {
			t.Fatalf("bad sample %+v", s)
		}
	}
	// No duplicate emission when time does not advance past the next due.
	before := len(c.Samples())
	c.Tick(0, 1000, blocks[1])
	if len(c.Samples()) != before {
		t.Fatal("re-tick at same time emitted samples")
	}
}

func TestDriftBounded(t *testing.T) {
	_, blocks := testBlocks(t)
	cfg := Config{IntervalCycles: 50, DriftMaxCycles: 5, LossProb: 0, Seed: 3}
	c, _ := NewCollector(cfg, 4)
	for cpu := 0; cpu < 4; cpu++ {
		c.Tick(cpu, 10000, blocks[0])
	}
	// Drift is a constant per-CPU offset: consecutive samples on one CPU
	// must be spaced exactly one interval apart.
	last := map[int]int64{}
	for _, s := range c.Samples() {
		if prev, ok := last[s.CPU]; ok {
			if s.ITC-prev != cfg.IntervalCycles {
				t.Fatalf("cpu %d samples %d apart, want %d", s.CPU, s.ITC-prev, cfg.IntervalCycles)
			}
		}
		last[s.CPU] = s.ITC
	}
	if len(last) != 4 {
		t.Fatalf("sampled %d CPUs, want 4", len(last))
	}
}

func TestLossReducesSamples(t *testing.T) {
	_, blocks := testBlocks(t)
	full, _ := NewCollector(Config{IntervalCycles: 10, LossProb: 0, Seed: 1}, 1)
	lossy, _ := NewCollector(Config{IntervalCycles: 10, LossProb: 0.5, Seed: 1}, 1)
	full.Tick(0, 100000, blocks[0])
	lossy.Tick(0, 100000, blocks[0])
	nf, nl := len(full.Samples()), len(lossy.Samples())
	if nl >= nf {
		t.Fatalf("lossy (%d) should have fewer samples than full (%d)", nl, nf)
	}
	if nl < nf/3 {
		t.Fatalf("lossy (%d) dropped far more than half of %d", nl, nf)
	}
}

func TestNilBlockSkipped(t *testing.T) {
	c, _ := NewCollector(Config{IntervalCycles: 10, Seed: 1}, 1)
	c.Tick(0, 1000, nil)
	if len(c.Samples()) != 0 {
		t.Fatal("nil block produced samples")
	}
}

func TestSlices(t *testing.T) {
	_, blocks := testBlocks(t)
	c, _ := NewCollector(Config{IntervalCycles: 10, DriftMaxCycles: 0, LossProb: 0, Seed: 9}, 2)
	c.Tick(0, 500, blocks[0])
	c.Tick(1, 500, blocks[1])
	tr := c.Finish()
	slices, err := tr.Slices(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) == 0 {
		t.Fatal("no slices")
	}
	total := 0.0
	for i, sc := range slices {
		if i > 0 && sc.Slice <= slices[i-1].Slice {
			t.Fatal("slices out of order")
		}
		for cpu, m := range sc.ByCPU {
			for blk, n := range m {
				total += n
				if cpu == 0 && blk != blocks[0].Global {
					t.Fatalf("cpu0 sampled block %d", blk)
				}
			}
		}
	}
	if int(total) != len(tr.Samples) {
		t.Fatalf("slice totals %v != %d samples", total, len(tr.Samples))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{IntervalCycles: 0},
		{IntervalCycles: 10, DriftMaxCycles: -1},
		{IntervalCycles: 10, LossProb: 1.0},
		{IntervalCycles: 10, LossProb: -0.1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector(Config{IntervalCycles: -1}, 1); err == nil {
		t.Fatal("NewCollector accepted bad config")
	}
}

func TestDeterminism(t *testing.T) {
	_, blocks := testBlocks(t)
	run := func() []Sample {
		c, _ := NewCollector(Config{IntervalCycles: 10, DriftMaxCycles: 3, LossProb: 0.2, Seed: 42}, 2)
		c.Tick(0, 1234, blocks[0])
		c.Tick(1, 2345, blocks[1])
		return c.Samples()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNewCollectorRejectsZeroCPUs(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewCollector(DefaultConfig(), n); err == nil {
			t.Fatalf("collector accepted %d CPUs", n)
		}
	}
}

func TestHighLossStillTerminates(t *testing.T) {
	_, blocks := testBlocks(t)
	c, err := NewCollector(Config{IntervalCycles: 10, LossProb: 0.99, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0, 100000, blocks[0])
	n := len(c.Samples())
	if n == 0 {
		t.Skip("seed lost every sample; acceptable at 99% loss")
	}
	if n > 10000/2 {
		t.Fatalf("99%% loss kept %d of ~10000 samples", n)
	}
}

func TestZeroDriftExactITC(t *testing.T) {
	_, blocks := testBlocks(t)
	c, _ := NewCollector(Config{IntervalCycles: 50, DriftMaxCycles: 0, Seed: 2}, 2)
	c.Tick(0, 5000, blocks[0])
	c.Tick(1, 5000, blocks[0])
	for _, s := range c.Samples() {
		if s.ITC%50 != 0 && s.ITC < 1 {
			t.Fatalf("drift-free sample has implausible ITC %d", s.ITC)
		}
		if s.ITC < 1 || s.ITC > 5000 {
			t.Fatalf("sample ITC %d outside the run", s.ITC)
		}
	}
}

func TestBackwardsVirtualTime(t *testing.T) {
	_, blocks := testBlocks(t)
	c, _ := NewCollector(Config{IntervalCycles: 10, Seed: 3}, 1)
	c.Tick(0, 1000, blocks[0])
	n := len(c.Samples())
	c.Tick(0, 500, blocks[0]) // time runs backwards
	if len(c.Samples()) != n {
		t.Fatal("backwards tick emitted samples")
	}
	c.Tick(0, 2000, blocks[0]) // recovery: sampling resumes, no duplicates
	if len(c.Samples()) <= n {
		t.Fatal("sampling did not resume after the backwards jump")
	}
	seen := map[Sample]bool{}
	for _, s := range c.Samples() {
		if seen[s] {
			t.Fatalf("duplicate sample %+v after backwards jump", s)
		}
		seen[s] = true
	}
}

func TestSanitizeDropsAndCounts(t *testing.T) {
	tr := &Trace{
		IntervalCycles: 100,
		NumCPUs:        2,
		Samples: []Sample{
			{CPU: 0, Block: 0, ITC: 100},
			{CPU: 0, Block: 0, ITC: 100},     // duplicate
			{CPU: 5, Block: 0, ITC: 200},     // bad CPU
			{CPU: -1, Block: 0, ITC: 200},    // bad CPU
			{CPU: 1, Block: -2, ITC: 200},    // bad block
			{CPU: 1, Block: 99, ITC: 200},    // block out of range for numBlocks=3
			{CPU: 0, Block: 1, ITC: -200000}, // absurd ITC (< -1000 intervals)
			{CPU: 0, Block: 1, ITC: 50},      // non-monotonic on CPU 0: kept
			{CPU: 1, Block: 2, ITC: 300},
		},
	}
	log := diag.NewLog()
	clean := Sanitize(tr, 3, log)
	if len(clean.Samples) != 3 {
		t.Fatalf("kept %d samples, want 3: %+v", len(clean.Samples), clean.Samples)
	}
	for code, want := range map[string]int{
		"cpu-range":        2,
		"block-range":      2,
		"itc-absurd":       1,
		"dup-dropped":      1,
		"itc-nonmonotonic": 1,
	} {
		found := false
		for _, d := range log.Entries() {
			if d.Code == code {
				found = true
				if d.Count != want {
					t.Errorf("%s count = %d, want %d", code, d.Count, want)
				}
			}
		}
		if !found {
			t.Errorf("no %s diagnostic", code)
		}
	}
}

func TestSanitizeCleanTraceUnchanged(t *testing.T) {
	_, blocks := testBlocks(t)
	c, _ := NewCollector(Config{IntervalCycles: 10, DriftMaxCycles: 2, Seed: 4}, 2)
	c.Tick(0, 1000, blocks[0])
	c.Tick(1, 1000, blocks[1])
	tr := c.Finish()
	log := diag.NewLog()
	clean := Sanitize(tr, 0, log)
	if log.Len() != 0 {
		t.Fatalf("clean trace produced diagnostics:\n%s", log)
	}
	if len(clean.Samples) != len(tr.Samples) {
		t.Fatalf("clean trace lost samples: %d -> %d", len(tr.Samples), len(clean.Samples))
	}
	for i := range clean.Samples {
		if clean.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d changed: %+v vs %+v", i, clean.Samples[i], tr.Samples[i])
		}
	}
	if Sanitize(nil, 0, log) != nil {
		t.Fatal("Sanitize(nil) != nil")
	}
}

func TestSlicesRejectsBadSliceSize(t *testing.T) {
	tr := &Trace{IntervalCycles: 10, NumCPUs: 1}
	for _, n := range []int64{0, -5} {
		if _, err := tr.Slices(n); err == nil {
			t.Fatalf("Slices accepted %d", n)
		}
	}
}
