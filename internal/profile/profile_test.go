package profile

import (
	"bytes"
	"math"
	"testing"

	"structlayout/internal/ir"
)

func buildFig4(t testing.TB, n int64) (*ir.Program, *ir.StructType) {
	t.Helper()
	p := ir.NewProgram("fig4")
	s := ir.NewStruct("S", ir.I64("f1"), ir.I64("f2"), ir.I64("f3"))
	p.AddStruct(s)
	b := p.NewProc("snippet")
	b.Write(s, "f1", ir.Shared(0))
	b.Write(s, "f2", ir.Shared(0))
	b.Loop(n, func(b *ir.Builder) {
		b.Write(s, "f3", ir.Shared(0))
		b.Read(s, "f3", ir.Shared(0))
		b.Read(s, "f1", ir.Shared(0))
		b.Read(s, "f3", ir.Shared(0))
	})
	b.Done()
	return p.MustFinalize(), s
}

func TestStaticEstimateFig4(t *testing.T) {
	const n = 50
	p, s := buildFig4(t, n)
	pf, err := StaticEstimate(p, []string{"snippet"})
	if err != nil {
		t.Fatal(err)
	}
	fc := ProgramFieldCounts(p, pf)
	// Figure 5's annotations: f1 R=N W=n(entry count=1), f2 W=1, f3 R=2N W=N.
	f1 := fc[FieldKey{Struct: s.Name, Field: 0}]
	f2 := fc[FieldKey{Struct: s.Name, Field: 1}]
	f3 := fc[FieldKey{Struct: s.Name, Field: 2}]
	if f1.Reads != n || f1.Writes != 1 {
		t.Fatalf("f1 = %+v", f1)
	}
	if f2.Reads != 0 || f2.Writes != 1 {
		t.Fatalf("f2 = %+v", f2)
	}
	if f3.Reads != 2*n || f3.Writes != n {
		t.Fatalf("f3 = %+v", f3)
	}
	// Hotness: f1 = N + n(=1 entry), f3 = 3N.
	if got := f1.Total(); got != n+1 {
		t.Fatalf("hotness(f1) = %v", got)
	}
	if got := f3.Total(); got != 3*n {
		t.Fatalf("hotness(f3) = %v", got)
	}
	// Loop EC.
	l := p.Proc("snippet").Loops[0]
	if got := pf.LoopEC(l); got != n {
		t.Fatalf("LoopEC = %v", got)
	}
}

func TestStaticEstimateBranches(t *testing.T) {
	p := ir.NewProgram("br")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.IfElse(0.25,
		func(b *ir.Builder) { b.Read(s, "a", ir.Shared(0)) },
		func(b *ir.Builder) { b.Read(s, "b", ir.Shared(0)) },
	)
	b.Done()
	p.MustFinalize()
	pf, err := StaticEstimate(p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	fc := ProgramFieldCounts(p, pf)
	if got := fc[FieldKey{Struct: "S", Field: 0}].Reads; math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("then-arm weight = %v", got)
	}
	if got := fc[FieldKey{Struct: "S", Field: 1}].Reads; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("else-arm weight = %v", got)
	}
}

func TestStaticEstimateCalls(t *testing.T) {
	p := ir.NewProgram("calls")
	s := ir.NewStruct("S", ir.I64("a"))
	p.AddStruct(s)
	leaf := p.NewProc("leaf")
	leaf.Read(s, "a", ir.Shared(0))
	leaf.Done()
	mid := p.NewProc("mid")
	mid.Loop(10, func(b *ir.Builder) { b.Call("leaf") })
	mid.Done()
	top := p.NewProc("top")
	top.Call("mid")
	top.Call("leaf")
	top.Done()
	p.MustFinalize()

	pf, err := StaticEstimate(p, []string{"top"})
	if err != nil {
		t.Fatal(err)
	}
	fc := ProgramFieldCounts(p, pf)
	// leaf runs 10 (via mid) + 1 (direct) = 11 times.
	if got := fc[FieldKey{Struct: "S", Field: 0}].Reads; math.Abs(got-11) > 1e-9 {
		t.Fatalf("leaf reads = %v, want 11", got)
	}
}

func TestStaticEstimateUnknownEntry(t *testing.T) {
	p, _ := buildFig4(t, 5)
	if _, err := StaticEstimate(p, []string{"ghost"}); err == nil {
		t.Fatal("expected error for unknown entry")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, _ := buildFig4(t, 5)
	a, _ := StaticEstimate(p, []string{"snippet"})
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Blocks {
		if got.Blocks[i] != a.Blocks[i] {
			t.Fatalf("roundtrip: block %d = %v", i, got.Blocks[i])
		}
	}
}

func TestReadJSONShapeMismatch(t *testing.T) {
	p1, _ := buildFig4(t, 5)
	p2 := ir.NewProgram("other")
	b := p2.NewProc("f")
	b.Compute(1)
	b.Done()
	p2.MustFinalize()

	pf, _ := StaticEstimate(p1, []string{"snippet"})
	var buf bytes.Buffer
	if err := pf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf, p2); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestIncrAndLoopAccounting(t *testing.T) {
	p, _ := buildFig4(t, 5)
	pf := New(p)
	blk := p.Blocks()[0]
	pf.IncrBlock(blk.Global)
	pf.IncrBlock(blk.Global)
	if pf.BlockCount(blk) != 2 {
		t.Fatalf("BlockCount = %v", pf.BlockCount(blk))
	}
	l := p.Proc("snippet").Loops[0]
	pf.AddLoop(l.Global, 5)
	pf.AddLoop(l.Global, 7)
	if pf.LoopEC(l) != 12 || pf.LoopEntries[l.Global] != 2 {
		t.Fatalf("loop accounting: EC=%v entries=%v", pf.LoopEC(l), pf.LoopEntries[l.Global])
	}
}
