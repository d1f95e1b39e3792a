package concurrency

import (
	"bytes"
	"math/rand"
	"testing"

	"structlayout/internal/ir"
	"structlayout/internal/sampling"
)

// syntheticTrace builds a trace with explicit samples.
func syntheticTrace(numCPUs int, samples []sampling.Sample) *sampling.Trace {
	return &sampling.Trace{Samples: samples, IntervalCycles: 1, NumCPUs: numCPUs}
}

func mkSamples(slice int64, sliceCycles int64, cpu int, block ir.BlockID, n int) []sampling.Sample {
	out := make([]sampling.Sample, n)
	for i := range out {
		out[i] = sampling.Sample{CPU: cpu, Block: block, ITC: slice*sliceCycles + int64(i)}
	}
	return out
}

func TestCCHandComputed(t *testing.T) {
	const sliceCycles = 1000
	// Slice 0: CPU0 runs B0 5 times, CPU1 runs B1 3 times.
	var samples []sampling.Sample
	samples = append(samples, mkSamples(0, sliceCycles, 0, 0, 5)...)
	samples = append(samples, mkSamples(0, sliceCycles, 1, 1, 3)...)
	// Slice 1: CPU0 runs B0 2 times, CPU1 runs B1 7 times.
	samples = append(samples, mkSamples(1, sliceCycles, 0, 0, 2)...)
	samples = append(samples, mkSamples(1, sliceCycles, 1, 1, 7)...)

	m, err := Compute(syntheticTrace(2, samples), Options{SliceCycles: sliceCycles})
	if err != nil {
		t.Fatal(err)
	}
	// CC(B0,B1) = min(5,3) + min(2,7) = 3 + 2 = 5.
	if got := m.Value(0, 1); got != 5 {
		t.Fatalf("CC(B0,B1) = %v, want 5", got)
	}
	// Same-block concurrency is zero here (each block runs on one CPU).
	if got := m.Value(0, 0); got != 0 {
		t.Fatalf("CC(B0,B0) = %v, want 0", got)
	}
}

func TestCCSameProcessorExcluded(t *testing.T) {
	const sliceCycles = 1000
	// One CPU alternates between B0 and B1: no cross-processor concurrency.
	var samples []sampling.Sample
	samples = append(samples, mkSamples(0, sliceCycles, 0, 0, 4)...)
	samples = append(samples, mkSamples(0, sliceCycles, 0, 1, 4)...)
	m, err := Compute(syntheticTrace(2, samples), Options{SliceCycles: sliceCycles})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Value(0, 1); got != 0 {
		t.Fatalf("CC = %v, want 0 for single-processor execution", got)
	}
}

func TestCCSameBlockTwoCPUs(t *testing.T) {
	const sliceCycles = 1000
	var samples []sampling.Sample
	samples = append(samples, mkSamples(0, sliceCycles, 0, 7, 4)...)
	samples = append(samples, mkSamples(0, sliceCycles, 1, 7, 6)...)
	m, err := Compute(syntheticTrace(2, samples), Options{SliceCycles: sliceCycles})
	if err != nil {
		t.Fatal(err)
	}
	// Ordered pairs (0,1) and (1,0): min(4,6) + min(6,4) = 8.
	if got := m.Value(7, 7); got != 8 {
		t.Fatalf("CC(B7,B7) = %v, want 8", got)
	}
}

func TestCCManyCPUs(t *testing.T) {
	const sliceCycles = 1000
	// 4 CPUs all run B0 twice; one runs B1 three times.
	var samples []sampling.Sample
	for cpu := 0; cpu < 4; cpu++ {
		samples = append(samples, mkSamples(0, sliceCycles, cpu, 0, 2)...)
	}
	samples = append(samples, mkSamples(0, sliceCycles, 3, 1, 3)...)
	m, err := Compute(syntheticTrace(4, samples), Options{SliceCycles: sliceCycles})
	if err != nil {
		t.Fatal(err)
	}
	// CC(B0,B1): ordered pairs (m,n), m runs B0, n runs B1 (n=3 only),
	// m != n: m in {0,1,2}: 3 × min(2,3)=2 -> 6.
	if got := m.Value(0, 1); got != 6 {
		t.Fatalf("CC(B0,B1) = %v, want 6", got)
	}
	// CC(B0,B0): 4 CPUs × 3 others × min(2,2)=2 -> 24.
	if got := m.Value(0, 0); got != 24 {
		t.Fatalf("CC(B0,B0) = %v, want 24", got)
	}
}

func TestRelevantFilter(t *testing.T) {
	const sliceCycles = 1000
	var samples []sampling.Sample
	samples = append(samples, mkSamples(0, sliceCycles, 0, 0, 5)...)
	samples = append(samples, mkSamples(0, sliceCycles, 1, 1, 5)...)
	samples = append(samples, mkSamples(0, sliceCycles, 2, 2, 5)...)
	m, err := Compute(syntheticTrace(3, samples), Options{
		SliceCycles: sliceCycles,
		Relevant:    func(b ir.BlockID) bool { return b != 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Value(0, 1) == 0 {
		t.Fatal("relevant pair filtered out")
	}
	if m.Value(0, 2) != 0 || m.Value(1, 2) != 0 {
		t.Fatal("irrelevant block leaked into the map")
	}
}

func TestComputeNilTrace(t *testing.T) {
	if _, err := Compute(nil, Options{}); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestTopPairsOrdering(t *testing.T) {
	m := &Map{CC: map[Pair]float64{
		MakePair(1, 2): 10,
		MakePair(3, 4): 30,
		MakePair(5, 6): 20,
	}}
	top := m.TopPairs(2)
	if len(top) != 2 || top[0] != MakePair(3, 4) || top[1] != MakePair(5, 6) {
		t.Fatalf("TopPairs = %+v", top)
	}
	all := m.TopPairs(100)
	if len(all) != 3 {
		t.Fatalf("TopPairs(100) = %d entries", len(all))
	}
}

func TestMakePairCanonical(t *testing.T) {
	if MakePair(5, 2) != (Pair{A: 2, B: 5}) {
		t.Fatal("MakePair not canonical")
	}
	if MakePair(2, 5) != MakePair(5, 2) {
		t.Fatal("MakePair not symmetric")
	}
}

func buildTinyProgram(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram("cc")
	s := ir.NewStruct("S", ir.I64("a"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Read(s, "a", ir.Shared(0))
	b.Write(s, "a", ir.Shared(0))
	b.Done()
	return p.MustFinalize()
}

// TestWriteText pins the concmap.txt encoding that layouttool -dump
// writes: one "fileA:lineA fileB:lineB cc" line per pair, highest CC
// first, values in %.6g.
func TestWriteText(t *testing.T) {
	p := buildTinyProgram(t)
	blocks := p.Blocks()
	m := &Map{CC: map[Pair]float64{
		MakePair(blocks[0].Global, blocks[1].Global): 12.5,
		MakePair(blocks[1].Global, blocks[1].Global): 1234567,
		MakePair(blocks[0].Global, blocks[0].Global): 0.000123456789,
	}, SliceCycles: 1000}
	var buf bytes.Buffer
	if err := m.WriteText(&buf, p); err != nil {
		t.Fatal(err)
	}
	const want = "f.c:2 f.c:2 1.23457e+06\n" +
		"f.c:1 f.c:2 12.5\n" +
		"f.c:1 f.c:1 0.000123457\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}

func TestLineScores(t *testing.T) {
	p := buildTinyProgram(t)
	blocks := p.Blocks()
	m := &Map{CC: map[Pair]float64{MakePair(blocks[0].Global, blocks[1].Global): 9}}
	ls := m.LineScores(p)
	if len(ls) != 1 {
		t.Fatalf("LineScores = %d entries", len(ls))
	}
	for k, v := range ls {
		if v != 9 {
			t.Fatalf("score = %v", v)
		}
		if k[1].Less(k[0]) {
			t.Fatal("line pair not canonical")
		}
	}
}

// buildThreeBlockProgram returns a program whose single procedure has three
// blocks on three distinct synthetic source lines.
func buildThreeBlockProgram(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram("cc3")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Read(s, "a", ir.Shared(0))
	b.Write(s, "a", ir.Shared(0))
	b.Read(s, "b", ir.Shared(0))
	b.Done()
	return p.MustFinalize()
}

// TestLineScoresSumsCollapsedPairs is the regression test for the map
// overwrite bug: when two distinct block pairs fall onto the same
// source-line pair, their CC mass must sum, not last-write-wins.
func TestLineScoresSumsCollapsedPairs(t *testing.T) {
	p := buildThreeBlockProgram(t)
	blocks := p.Blocks()
	// Force blocks 1 and 2 onto one source line, so the block pairs
	// (b0,b1) and (b0,b2) collapse onto a single line pair.
	blocks[2].Line = blocks[1].Line
	m := &Map{CC: map[Pair]float64{
		MakePair(blocks[0].Global, blocks[1].Global): 9,
		MakePair(blocks[0].Global, blocks[2].Global): 4,
	}}
	ls := m.LineScores(p)
	if len(ls) != 1 {
		t.Fatalf("LineScores = %d entries, want 1 collapsed entry", len(ls))
	}
	for _, v := range ls {
		if v != 13 {
			t.Fatalf("collapsed line-pair score = %v, want 9+4=13", v)
		}
	}
}

// ccTestTrace builds a deterministic trace rich enough for the invariance
// properties: several slices, every CPU sampling a few blocks with small
// integer counts, so all CC values are exact in float64 and the tests can
// demand exact equality.
func ccTestTrace(numCPUs int) *sampling.Trace {
	const sliceCycles = 1000
	var samples []sampling.Sample
	for slice := int64(0); slice < 5; slice++ {
		for cpu := 0; cpu < numCPUs; cpu++ {
			for blk := 0; blk < 4; blk++ {
				n := int((slice + int64(cpu) + int64(blk)) % 4)
				samples = append(samples, mkSamples(slice, sliceCycles, cpu, ir.BlockID(blk), n)...)
			}
		}
	}
	return &sampling.Trace{Samples: samples, IntervalCycles: 1, NumCPUs: numCPUs}
}

func requireSameMap(t *testing.T, want, got *Map) {
	t.Helper()
	if len(want.CC) != len(got.CC) {
		t.Fatalf("map sizes differ: %d vs %d", len(want.CC), len(got.CC))
	}
	for p, v := range want.CC {
		if got.CC[p] != v {
			t.Fatalf("pair %+v: %v vs %v", p, v, got.CC[p])
		}
	}
}

// TestCCInvariantUnderCPURelabeling: CC only asks whether two DIFFERENT
// processors run two blocks in the same interval, so permuting CPU
// identities must leave the map bit-for-bit unchanged.
func TestCCInvariantUnderCPURelabeling(t *testing.T) {
	const numCPUs = 8
	tr := ccTestTrace(numCPUs)
	base, err := Compute(tr, Options{SliceCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// (i*3+5) mod 8 is a bijection on [0,8): 3 is coprime with 8.
	relabeled := make([]sampling.Sample, len(tr.Samples))
	for i, s := range tr.Samples {
		s.CPU = (s.CPU*3 + 5) % numCPUs
		relabeled[i] = s
	}
	got, err := Compute(&sampling.Trace{Samples: relabeled, IntervalCycles: 1, NumCPUs: numCPUs}, Options{SliceCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMap(t, base, got)
}

// TestCCInvariantUnderSampleReordering: slicing buckets samples by ITC, so
// any permutation of the sample stream must produce the identical map.
func TestCCInvariantUnderSampleReordering(t *testing.T) {
	tr := ccTestTrace(4)
	base, err := Compute(tr, Options{SliceCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20070311))
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]sampling.Sample(nil), tr.Samples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := Compute(&sampling.Trace{Samples: shuffled, IntervalCycles: 1, NumCPUs: 4}, Options{SliceCycles: 1000})
		if err != nil {
			t.Fatal(err)
		}
		requireSameMap(t, base, got)
	}
}

// TestWriteTextTopPairsOrdering pins the line order of concmap.txt: the
// TopPairs ranking, with value ties broken by pair order.
func TestWriteTextTopPairsOrdering(t *testing.T) {
	p := buildThreeBlockProgram(t)
	blocks := p.Blocks()
	m := &Map{CC: map[Pair]float64{
		MakePair(blocks[0].Global, blocks[1].Global): 320,
		MakePair(blocks[0].Global, blocks[2].Global): 7500,
		MakePair(blocks[1].Global, blocks[2].Global): 41,
		MakePair(blocks[2].Global, blocks[2].Global): 7500,
	}, SliceCycles: 1000}
	var buf bytes.Buffer
	if err := m.WriteText(&buf, p); err != nil {
		t.Fatal(err)
	}
	const want = "f.c:1 f.c:3 7500\n" +
		"f.c:3 f.c:3 7500\n" +
		"f.c:1 f.c:2 320\n" +
		"f.c:2 f.c:3 41\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkAccumulateSlice exercises one interval on a Superdome-width
// machine: 128 CPUs each sampling 8 blocks. The per-CPU index built in
// finish() keeps the m == n diagonal correction O(1) per lookup; before it,
// countFor was a linear scan and this benchmark was quadratic in CPUs.
func BenchmarkAccumulateSlice(b *testing.B) {
	const numCPUs = 128
	sc := sampling.SliceCounts{ByCPU: make([]map[ir.BlockID]float64, numCPUs)}
	for cpu := 0; cpu < numCPUs; cpu++ {
		counts := make(map[ir.BlockID]float64, 8)
		for blk := 0; blk < 8; blk++ {
			counts[ir.BlockID(blk)] = float64(1 + (cpu+blk)%5)
		}
		sc.ByCPU[cpu] = counts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &Map{CC: make(map[Pair]float64)}
		accumulateSlice(m, sc, nil)
	}
}
