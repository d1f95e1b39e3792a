package ir

import (
	"strings"
	"testing"
)

func figure4Struct() *StructType {
	return NewStruct("S", I64("f1"), I64("f2"), I64("f3"))
}

// figure4Program builds the paper's Figure 4 snippet:
//
//	S.f1 = ; S.f2 = ;
//	for i in 0..N { S.f3 = ; = S.f3 + S.f1; = S.f3 }
func figure4Program(n int64) *Program {
	p := NewProgram("fig4")
	s := figure4Struct()
	p.AddStruct(s)
	b := p.NewProc("snippet")
	b.Write(s, "f1", Shared(0))
	b.Write(s, "f2", Shared(0))
	b.Loop(n, func(b *Builder) {
		b.Write(s, "f3", Shared(0))
		b.Read(s, "f3", Shared(0))
		b.Read(s, "f1", Shared(0))
		b.Read(s, "f3", Shared(0))
	})
	b.Done()
	return p.MustFinalize()
}

func TestStructConstruction(t *testing.T) {
	s := NewStruct("T", I8("a"), I16("b"), I32("c"), I64("d"), Ptr("p"), Pad("pad", 3), Arr("arr", 4, 8, 8))
	if got := s.NumFields(); got != 7 {
		t.Fatalf("NumFields = %d, want 7", got)
	}
	if got := s.MinBytes(); got != 1+2+4+8+8+3+32 {
		t.Fatalf("MinBytes = %d", got)
	}
	if got := s.MaxAlign(); got != 8 {
		t.Fatalf("MaxAlign = %d, want 8", got)
	}
	if got := s.FieldIndex("d"); got != 3 {
		t.Fatalf("FieldIndex(d) = %d, want 3", got)
	}
	if got := s.FieldIndex("nope"); got != -1 {
		t.Fatalf("FieldIndex(nope) = %d, want -1", got)
	}
	if !strings.Contains(s.Dump(), "size=8 align=8") {
		t.Fatalf("Dump missing field info:\n%s", s.Dump())
	}
}

func TestStructPanics(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
	}{
		{"empty name", []Field{{Name: "", Size: 4, Align: 4}}},
		{"zero size", []Field{{Name: "x", Size: 0, Align: 4}}},
		{"bad align", []Field{{Name: "x", Size: 4, Align: 3}}},
		{"zero align", []Field{{Name: "x", Size: 4, Align: 0}}},
		{"duplicate", []Field{I32("x"), I32("x")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewStruct(%s) did not panic", c.name)
				}
			}()
			NewStruct("bad", c.fields...)
		})
	}
}

func TestFigure4Lowering(t *testing.T) {
	p := figure4Program(100)
	pr := p.Proc("snippet")
	if pr == nil {
		t.Fatal("procedure missing")
	}
	if len(pr.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(pr.Loops))
	}
	l := pr.Loops[0]
	if l.TripCount != 100 || l.Header.Loop != l {
		t.Fatalf("loop trip=%d, header in loop %v", l.TripCount, l.Header.Loop)
	}
	// Straight-line block before the loop holds the two stores.
	var pre *BasicBlock
	for _, b := range pr.Blocks {
		if !b.Synthetic && b.Loop == nil {
			pre = b
			break
		}
	}
	if pre == nil || len(pre.Instrs) != 2 {
		t.Fatalf("expected one 2-instruction straight-line block before loop, got %+v", pre)
	}
	// The loop body block holds the four accesses.
	var body *BasicBlock
	for _, b := range pr.Blocks {
		if !b.Synthetic && b.Loop == l {
			body = b
		}
	}
	if body == nil || len(body.Instrs) != 4 {
		t.Fatalf("expected one 4-instruction loop-body block")
	}
	// The loop holds its header and the body block, in that order.
	if len(l.Blocks) != 2 || l.Blocks[0] != l.Header || l.Blocks[1] != body {
		t.Fatalf("loop blocks = %v, want header then body", l.Blocks)
	}
}

func TestLinesUniqueAndTable(t *testing.T) {
	p := figure4Program(10)
	seen := make(map[SourceLine]bool)
	for _, b := range p.Blocks() {
		if seen[b.Line] {
			t.Fatalf("duplicate line %s", b.Line)
		}
		seen[b.Line] = true
	}
	table := p.LineTable()
	for _, b := range p.Blocks() {
		if table[b.Line] != b {
			t.Fatalf("line table mismatch for %s", b.Line)
		}
	}
}

func TestGlobalBlockIDs(t *testing.T) {
	p := figure4Program(10)
	for i, b := range p.Blocks() {
		if int(b.Global) != i {
			t.Fatalf("block %d has global ID %d", i, b.Global)
		}
		if p.Block(b.Global) != b {
			t.Fatalf("Block(%d) mismatch", b.Global)
		}
	}
}

// nestedLoopsProgram nests three loops, with an access before the
// inner loops and one after them.
func nestedLoopsProgram() *Program {
	p := NewProgram("nest")
	s := figure4Struct()
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Loop(10, func(b *Builder) {
		b.Read(s, "f1", Shared(0))
		b.Loop(20, func(b *Builder) {
			b.Read(s, "f2", Shared(0))
			b.Loop(30, func(b *Builder) {
				b.Write(s, "f3", Shared(0))
			})
		})
		b.Read(s, "f3", Shared(0))
	})
	b.Done()
	return p.MustFinalize()
}

func TestNestedLoops(t *testing.T) {
	pr := nestedLoopsProgram().Proc("f")
	if len(pr.Loops) != 3 {
		t.Fatalf("got %d loops, want 3", len(pr.Loops))
	}
	for i, want := range []int64{10, 20, 30} {
		if got := pr.Loops[i].TripCount; got != want {
			t.Fatalf("loop %d trip = %d, want %d", i, got, want)
		}
	}
	// Each access block sits in its innermost loop; the read after the
	// inner loops returns to the outer one.
	var got []*Loop
	for _, blk := range pr.Blocks {
		if len(blk.Instrs) > 0 {
			got = append(got, blk.Loop)
		}
	}
	want := []*Loop{pr.Loops[0], pr.Loops[1], pr.Loops[2], pr.Loops[0]}
	if len(got) != len(want) {
		t.Fatalf("%d access blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access block %d is not filed under %s", i, want[i].Name())
		}
	}
}

// ifProgram reads f1, writes f2 or f3 behind a 0.25 branch, and reads f1
// again.
func ifProgram() *Program {
	p := NewProgram("branch")
	s := figure4Struct()
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Read(s, "f1", Shared(0))
	b.IfElse(0.25,
		func(b *Builder) { b.Write(s, "f2", Shared(0)) },
		func(b *Builder) { b.Write(s, "f3", Shared(0)) },
	)
	b.Read(s, "f1", Shared(0))
	b.Done()
	return p.MustFinalize()
}

func TestIfLowering(t *testing.T) {
	pr := ifProgram().Proc("f")
	// Tree: entry, the first read, the branch, the second read, exit.
	if len(pr.Tree) != 5 {
		t.Fatalf("tree has %d nodes, want 5", len(pr.Tree))
	}
	br, ok := pr.Tree[2].(*ExecIf)
	if !ok {
		t.Fatalf("third node is %T, want *ExecIf", pr.Tree[2])
	}
	if br.Prob != 0.25 || !br.Cond.Synthetic || !br.Join.Synthetic {
		t.Fatalf("branch prob=%v, cond synthetic=%t, join synthetic=%t", br.Prob, br.Cond.Synthetic, br.Join.Synthetic)
	}
	for arm, nodes := range map[string][]ExecNode{"then": br.Then, "else": br.Else} {
		if len(nodes) != 1 {
			t.Fatalf("%s arm has %d nodes, want 1", arm, len(nodes))
		}
		if blk, ok := nodes[0].(*ExecBlock); !ok || len(blk.Block.Instrs) != 1 || blk.Block.Instrs[0].Acc != Write {
			t.Fatalf("%s arm is not one block holding one write", arm)
		}
	}
	if len(pr.Loops) != 0 {
		t.Fatal("branch-only procedure has loops")
	}
}

func TestEmptyThenArm(t *testing.T) {
	p := NewProgram("emptyif")
	s := figure4Struct()
	p.AddStruct(s)
	b := p.NewProc("f")
	b.If(0.5, func(b *Builder) {}) // both arms empty
	b.Read(s, "f1", Shared(0))
	b.Done()
	if err := p.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
}

func TestRecursionRejected(t *testing.T) {
	p := NewProgram("rec")
	s := figure4Struct()
	p.AddStruct(s)
	a := p.NewProc("a")
	a.Call("b")
	a.Done()
	bb := p.NewProc("b")
	bb.Call("a")
	bb.Done()
	if err := p.Finalize(); err == nil {
		t.Fatal("expected error for mutual recursion")
	}
}

func TestUndefinedCalleeRejected(t *testing.T) {
	p := NewProgram("undef")
	b := p.NewProc("f")
	b.Call("ghost")
	b.Done()
	if err := p.Finalize(); err == nil {
		t.Fatal("expected error for undefined callee")
	}
}

func TestEmptyLoopRejected(t *testing.T) {
	p := NewProgram("emptyloop")
	b := p.NewProc("f")
	b.Loop(5, func(b *Builder) {})
	b.Done()
	if err := p.Finalize(); err == nil {
		t.Fatal("expected error for empty loop body")
	}
}

// TestRegionAccessOutsideRegionRejected: a fixed access at a negative
// offset or a sweep whose stride is below 1 would address memory before
// its region, so Finalize rejects it, naming the procedure and region.
func TestRegionAccessOutsideRegionRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		emit func(b *Builder)
		want string
	}{
		{"negative offset", func(b *Builder) { b.MemAt("buf", Write, -200) }, "f accesses region buf at negative offset -200"},
		{"zero stride", func(b *Builder) { b.MemSweep("buf", Read, 0) }, "f sweeps region buf with non-positive stride 0"},
		{"negative stride", func(b *Builder) { b.MemSweep("buf", Write, -64) }, "f sweeps region buf with non-positive stride -64"},
		{"in bounds", func(b *Builder) { b.MemAt("buf", Write, 0); b.MemSweep("buf", Read, 1) }, ""},
	} {
		p := NewProgram("regions")
		p.AddRegion("buf", 256, false)
		b := p.NewProc("f")
		c.emit(b)
		b.Done()
		err := p.Finalize()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Finalize error %v, want %q", c.name, err, c.want)
		}
	}
}

func TestDumpSmoke(t *testing.T) {
	p := figure4Program(7)
	d := p.Dump()
	for _, want := range []string{"program fig4", "struct S", "proc snippet", "loop snippet$L0", "W S.f1 shared[0]"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	p := NewProgram("panics")
	s := figure4Struct()
	p.AddStruct(s)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	b := p.NewProc("f")
	mustPanic("unknown field", func() { b.Read(s, "zz", Shared(0)) })
	mustPanic("bad index", func() { b.ReadI(s, 99, Shared(0)) })
	mustPanic("bad region", func() { b.MemAt("noregion", Read, 0) })
	mustPanic("bad prob", func() { b.If(1.5, func(*Builder) {}) })
	mustPanic("bad compute", func() { b.Compute(0) })
	mustPanic("negative loop", func() { b.Loop(-1, func(*Builder) {}) })
	b.Done()
	mustPanic("after done", func() { b.Compute(1) })
}

func TestExecTreeShape(t *testing.T) {
	p := figure4Program(9)
	pr := p.Proc("snippet")
	// Tree: entry block, straight-line block, loop, exit block.
	if len(pr.Tree) != 4 {
		t.Fatalf("tree has %d nodes, want 4", len(pr.Tree))
	}
	loop, ok := pr.Tree[2].(*ExecLoop)
	if !ok {
		t.Fatalf("third node is %T, want *ExecLoop", pr.Tree[2])
	}
	if loop.Count != 9 || len(loop.Body) != 1 {
		t.Fatalf("loop count=%d body=%d", loop.Count, len(loop.Body))
	}
}

func TestInstExprString(t *testing.T) {
	cases := map[string]InstExpr{
		"shared[3]": Shared(3),
		"percpu":    PerCPU(),
		"param[2]":  Param(2),
		"loopvar":   LoopVar(),
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestRegions(t *testing.T) {
	p := NewProgram("regions")
	p.AddRegion("heap", 1<<20, false)
	p.AddRegion("stack", 1<<16, true)
	if r := p.Region("heap"); r == nil || r.PerThread {
		t.Fatal("heap region wrong")
	}
	if r := p.Region("stack"); r == nil || !r.PerThread {
		t.Fatal("stack region wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate region did not panic")
		}
	}()
	p.AddRegion("heap", 1, false)
}

// mixedProgram nests a loop holding a branch inside one arm of a branch,
// followed by a second loop.
func mixedProgram() *Program {
	p := NewProgram("mixed")
	s := figure4Struct()
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Read(s, "f1", Shared(0))
	b.IfElse(0.5,
		func(b *Builder) {
			b.Loop(3, func(b *Builder) {
				b.Write(s, "f2", Shared(0))
				b.If(0.25, func(b *Builder) { b.Read(s, "f3", Shared(0)) })
			})
		},
		func(b *Builder) { b.Compute(5) },
	)
	b.Loop(2, func(b *Builder) { b.Read(s, "f1", Shared(0)) })
	b.Done()
	return p.MustFinalize()
}

// TestFieldInstrs: every block lists its field-touching instructions —
// field accesses, locks and unlocks, in order, and nothing else — and
// reading the list allocates nothing, because Finalize computed it.
func TestFieldInstrs(t *testing.T) {
	p := NewProgram("fields")
	s := figure4Struct()
	p.AddStruct(s)
	p.AddRegion("heap", 4096, false)
	leaf := p.NewProc("leaf")
	leaf.Compute(3)
	leaf.Done()
	b := p.NewProc("f")
	b.Lock(s, "f1", Shared(0))
	b.Write(s, "f2", Shared(0))
	b.MemSweep("heap", Read, 64)
	b.Compute(7)
	b.Read(s, "f3", Shared(0))
	b.Call("leaf")
	b.Unlock(s, "f1", Shared(0))
	b.Done()
	p.MustFinalize()

	fieldOps := 0
	for _, blk := range p.Blocks() {
		var want []Opcode
		for _, in := range blk.Instrs {
			if in.Op == OpField || in.Op == OpLock || in.Op == OpUnlock {
				want = append(want, in.Op)
			}
		}
		got := blk.FieldInstrs()
		if len(got) != len(want) {
			t.Fatalf("%s: %d field instructions, want %d", blk.Name(), len(got), len(want))
		}
		for i, in := range got {
			if in.Op != want[i] || in.Struct != s {
				t.Fatalf("%s: field instruction %d is %v on %v, want %v on %s", blk.Name(), i, in.Op, in.Struct, want[i], s)
			}
		}
		fieldOps += len(got)
		if n := testing.AllocsPerRun(10, func() { blk.FieldInstrs() }); n != 0 {
			t.Fatalf("%s: FieldInstrs allocates %.0f times per call", blk.Name(), n)
		}
	}
	if fieldOps != 4 {
		t.Fatalf("%d field instructions in the program, want 4 (lock, write, read, unlock)", fieldOps)
	}
}
