package flg

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"structlayout/internal/affinity"
	"structlayout/internal/concurrency"
	"structlayout/internal/fieldmap"
	"structlayout/internal/ir"
	"structlayout/internal/profile"
)

// buildScenario: two procedures; reader loops over f0,f1 (affinity);
// writer hammers f2; a synthetic concurrency map says reader-block and
// writer-block run concurrently.
func buildScenario(t testing.TB) (*ir.Program, *ir.StructType, *affinity.Graph, *fieldmap.File, *concurrency.Map) {
	t.Helper()
	p := ir.NewProgram("flgtest")
	s := ir.NewStruct("S", ir.I64("f0"), ir.I64("f1"), ir.I64("f2"))
	p.AddStruct(s)
	rd := p.NewProc("reader")
	rd.Loop(100, func(b *ir.Builder) {
		b.Read(s, "f0", ir.Shared(0))
		b.Read(s, "f1", ir.Shared(0))
	})
	rd.Done()
	wr := p.NewProc("writer")
	wr.Loop(100, func(b *ir.Builder) {
		b.Write(s, "f2", ir.Shared(0))
	})
	wr.Done()
	p.MustFinalize()

	pf, err := profile.StaticEstimate(p, []string{"reader", "writer"})
	if err != nil {
		t.Fatal(err)
	}
	ag := affinity.Build(p, pf, s)
	fmf := fieldmap.Build(p)

	// Locate the two field-bearing blocks.
	var readerBlk, writerBlk ir.BlockID = -1, -1
	for _, b := range p.Blocks() {
		if len(b.FieldInstrs()) == 0 {
			continue
		}
		if b.Proc.Name == "reader" {
			readerBlk = b.Global
		} else {
			writerBlk = b.Global
		}
	}
	if readerBlk < 0 || writerBlk < 0 {
		t.Fatal("blocks not found")
	}
	cm := &concurrency.Map{CC: map[concurrency.Pair]float64{
		concurrency.MakePair(readerBlk, writerBlk): 50,
	}}
	return p, s, ag, fmf, cm
}

func TestGainAndLossCombine(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{})

	// Affinity: f0-f1 min(100,100)=100 gain, no loss (no write in pair's
	// concurrent blocks? f0,f1 read in readerBlk; writerBlk writes f2 only;
	// loss edges are (f0,f2) and (f1,f2)).
	if got := g.Weight(0, 1); got != 100 {
		t.Fatalf("w(f0,f1) = %v, want 100", got)
	}
	// Loss: CC=50 joins (f0,f2) and (f1,f2) with k2=1.
	if got := g.Weight(0, 2); got != -50 {
		t.Fatalf("w(f0,f2) = %v, want -50", got)
	}
	if got := g.Weight(1, 2); got != -50 {
		t.Fatalf("w(f1,f2) = %v, want -50", got)
	}
	if got := g.Weight(1, 1); got != 0 {
		t.Fatalf("self weight = %v", got)
	}
	// One entry per pair, under its canonical key, holds both components.
	if e := g.Pair(2, 0); e != (Edge{F1: 0, F2: 2, Loss: 50}) || e != g.Pairs[[2]int{0, 2}] {
		t.Fatalf("Pair(2, 0) = %+v", e)
	}
}

func TestK1K2Scaling(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{K1: 2, K2: 10})
	if got := g.Weight(0, 1); got != 200 {
		t.Fatalf("k1-scaled gain = %v, want 200", got)
	}
	if got := g.Weight(0, 2); got != -500 {
		t.Fatalf("k2-scaled loss = %v, want -500", got)
	}
}

func TestAliasOracleSuppressesLoss(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{
		AliasOracle: func(b1, b2 ir.BlockID) bool { return true },
	})
	if got := g.Weight(0, 2); got != 0 {
		t.Fatalf("alias-suppressed loss = %v, want 0", got)
	}
	if got := g.Weight(0, 1); got != 100 {
		t.Fatalf("gain must be unaffected, got %v", got)
	}
}

func TestReadOnlyConcurrencyNoLoss(t *testing.T) {
	// Two reader blocks concurrent: no write, no loss.
	p := ir.NewProgram("ro")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	r1 := p.NewProc("r1")
	r1.Loop(10, func(b *ir.Builder) { b.Read(s, "a", ir.Shared(0)) })
	r1.Done()
	r2 := p.NewProc("r2")
	r2.Loop(10, func(b *ir.Builder) { b.Read(s, "b", ir.Shared(0)) })
	r2.Done()
	p.MustFinalize()
	pf, _ := profile.StaticEstimate(p, []string{"r1", "r2"})
	ag := affinity.Build(p, pf, s)
	fmf := fieldmap.Build(p)
	var blks []ir.BlockID
	for _, b := range p.Blocks() {
		if len(b.FieldInstrs()) > 0 {
			blks = append(blks, b.Global)
		}
	}
	cm := &concurrency.Map{CC: map[concurrency.Pair]float64{concurrency.MakePair(blks[0], blks[1]): 99}}
	g := Build(ag, cm, fmf, Options{})
	if got := g.Weight(0, 1); got != 0 {
		t.Fatalf("read-read concurrency produced loss %v", got)
	}
}

func TestEdgesSortedAndImportant(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{})
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Weight() > edges[i-1].Weight() {
			t.Fatal("edges not sorted by weight")
		}
	}
	if again := g.Edges(); len(again) != len(edges) || &again[0] != &edges[0] {
		t.Fatal("a repeat Edges call built a new slice")
	}
	// Important edges: all negatives (2) + top-1 positive.
	if imp := g.Important(1); len(imp.Edges()) != 3 {
		t.Fatalf("important edges = %d, want 3", len(imp.Edges()))
	}
	if neg := g.Important(0); len(neg.Edges()) != 2 || edges[1] != neg.Edges()[0] || edges[2] != neg.Edges()[1] {
		t.Fatalf("negatives only = %+v, want the tail of %+v", neg.Edges(), edges)
	}
}

func TestSubgraph(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{})
	sg := g.Important(0)
	if got := sg.Weight(0, 1); got != 0 {
		t.Fatalf("dropped edge still present: %v", got)
	}
	if got := sg.Weight(0, 2); got != -50 {
		t.Fatalf("kept edge = %v", got)
	}
	if len(sg.Pairs) != 2 {
		t.Fatalf("subgraph pairs = %v", sg.Pairs)
	}
	for k, e := range sg.Pairs {
		if e != g.Pair(k[0], k[1]) || [2]int{e.F1, e.F2} != k {
			t.Fatalf("subgraph pair %v = %+v, want %+v", k, e, g.Pair(k[0], k[1]))
		}
	}
}

// TestImportantKeepsOrder: Important(k) holds exactly the edges the §5.2
// filter picks from Edges() (every negative edge and the k strongest
// positive ones) in Edges() order, which is the order a sort of its own
// pairs gives.
func TestImportantKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := &Graph{Pairs: map[[2]int]Edge{}}
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			if rng.Intn(4) > 0 {
				// Small integer weights give ties and zero-weight edges.
				g.Pairs[[2]int{a, b}] = Edge{F1: a, F2: b, Gain: float64(rng.Intn(5)), Loss: float64(rng.Intn(5))}
			}
		}
	}
	for _, k := range []int{0, 1, 5, 20, 1000} {
		var want []Edge
		positives := 0
		for _, e := range g.Edges() {
			switch {
			case e.Weight() < 0:
				want = append(want, e)
			case e.Weight() > 0 && positives < k:
				want = append(want, e)
				positives++
			}
		}
		sg := g.Important(k)
		if !reflect.DeepEqual(sg.Edges(), want) {
			t.Fatalf("Important(%d).Edges() =\n%+v\nwant\n%+v", k, sg.Edges(), want)
		}
		if sorted := (&Graph{Pairs: sg.Pairs}).Edges(); !reflect.DeepEqual(sorted, want) {
			t.Fatalf("Important(%d): its pairs sort to\n%+v\nwant\n%+v", k, sorted, want)
		}
	}
}

func TestBuildWithoutConcurrency(t *testing.T) {
	_, _, ag, _, _ := buildScenario(t)
	g := Build(ag, nil, nil, Options{})
	if got := g.Weight(0, 1); got != 100 {
		t.Fatalf("gain-only graph w = %v", got)
	}
	if _, ok := g.Pairs[[2]int{0, 2}]; ok || g.Pair(2, 0) != (Edge{F1: 0, F2: 2}) {
		t.Fatalf("pair without an edge: stored %t, Pair(2, 0) = %+v", ok, g.Pair(2, 0))
	}
	for _, e := range g.Pairs {
		if e.Loss != 0 {
			t.Fatalf("loss appeared without concurrency data: %+v", e)
		}
	}
}

func TestDump(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{})
	d := g.Dump()
	if !strings.Contains(d, "field layout graph for struct S") || !strings.Contains(d, "net=") {
		t.Fatalf("dump malformed:\n%s", d)
	}
}

func TestWriteDOT(t *testing.T) {
	_, _, ag, fmf, cm := buildScenario(t)
	g := Build(ag, cm, fmf, Options{})
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`graph "S" {`,
		`label="f0"`,
		`#2a7d4f`, // co-location edge
		`#b3362a`, // separation edge
		`style=dashed`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Isolated nodes appear only on request.
	gg := Build(ag, nil, nil, Options{})
	var lean, full bytes.Buffer
	_ = gg.WriteDOT(&lean, false)
	_ = gg.WriteDOT(&full, true)
	if strings.Contains(lean.String(), `label="f2"`) {
		t.Fatal("edge-less field rendered without withIsolated")
	}
	if !strings.Contains(full.String(), `label="f2"`) {
		t.Fatal("withIsolated did not render the edge-less field")
	}
}
