package fieldmap

import (
	"bytes"
	"testing"

	"structlayout/internal/ir"
)

func buildProgram(t testing.TB) (*ir.Program, *ir.StructType) {
	t.Helper()
	p := ir.NewProgram("fm")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"), ir.I64("lk"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Read(s, "a", ir.Shared(0))
	b.Write(s, "b", ir.Shared(0))
	b.Loop(4, func(b *ir.Builder) {
		b.Lock(s, "lk", ir.Shared(0))
		b.Read(s, "a", ir.Shared(0))
		b.Unlock(s, "lk", ir.Shared(0))
	})
	b.Compute(5)
	b.Done()
	return p.MustFinalize(), s
}

func TestBuildIndexesBlocks(t *testing.T) {
	p, _ := buildProgram(t)
	f := Build(p)
	// Two blocks carry field accesses: the pre-loop straight-line block and
	// the loop body block (Compute-only block has none... it shares the
	// body? No: Compute(5) is after the loop -> separate block, no fields).
	withFields := 0
	for _, b := range p.Blocks() {
		entries := f.AtBlock(b.Global)
		if len(entries) > 0 {
			withFields++
			if len(f.At(b.Line)) != len(entries) {
				t.Fatalf("line/block views disagree for %s", b.Line)
			}
		}
	}
	if withFields != 2 {
		t.Fatalf("blocks with fields = %d, want 2", withFields)
	}
}

func TestLockCountsAsWrite(t *testing.T) {
	p, _ := buildProgram(t)
	f := Build(p)
	found := false
	for _, entries := range f.Lines {
		for _, e := range entries {
			if e.Field == 2 { // lk
				found = true
				if e.Acc != ir.Write {
					t.Fatal("lock access not recorded as write")
				}
			}
		}
	}
	if !found {
		t.Fatal("lock field not in FMF")
	}
}

func TestBlocksTouching(t *testing.T) {
	p, _ := buildProgram(t)
	f := Build(p)
	m := f.BlocksTouching("S")
	if len(m) != 2 {
		t.Fatalf("BlocksTouching = %d blocks, want 2", len(m))
	}
	m2 := f.BlocksTouching("Nope")
	if len(m2) != 0 {
		t.Fatal("unknown struct matched blocks")
	}
	// The loop-body block both reads a and writes lk.
	hasWriteBlock := 0
	for _, entries := range m {
		for _, e := range entries {
			if e.Acc == ir.Write {
				hasWriteBlock++
				break
			}
		}
	}
	if hasWriteBlock != 2 { // pre-loop block writes b; body block locks lk
		t.Fatalf("blocks with writes = %d, want 2", hasWriteBlock)
	}
}

// TestWriteText pins the fmf.txt encoding that layouttool -dump writes:
// one line per source line, ordered by file and then line, each access as
// struct.field/R|W in block order.
func TestWriteText(t *testing.T) {
	p := ir.NewProgram("fm2")
	a := ir.NewStruct("A", ir.I64("x"), ir.I64("y"))
	b := ir.NewStruct("B", ir.I64("z"))
	p.AddStruct(a)
	p.AddStruct(b)
	g := p.NewProc("g")
	g.Write(b, "z", ir.Shared(0))
	g.Read(a, "y", ir.Shared(0))
	g.Done()
	f := p.NewProc("f")
	f.Read(a, "x", ir.Shared(0))
	f.Lock(b, "z", ir.Shared(0))
	f.Unlock(b, "z", ir.Shared(0))
	f.Done()
	var buf bytes.Buffer
	if err := Build(p.MustFinalize()).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "f.c:5 A.0/R B.0/W B.0/W\n" +
		"g.c:2 B.0/W A.1/R\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}
