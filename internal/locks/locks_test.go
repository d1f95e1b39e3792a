package locks

import (
	"testing"

	"structlayout/internal/ir"
)

// buildLocked: two procs, each taking the same shared lock around writes to
// different fields; a third proc writes unlocked.
func buildLocked(t testing.TB) (*ir.Program, *ir.StructType) {
	t.Helper()
	p := ir.NewProgram("locked")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"), ir.I64("b"), ir.I64("c"))
	p.AddStruct(s)

	pa := p.NewProc("writerA")
	pa.Lock(s, "lk", ir.Shared(0))
	pa.Write(s, "a", ir.Shared(0))
	pa.Unlock(s, "lk", ir.Shared(0))
	pa.Done()

	pb := p.NewProc("writerB")
	pb.Lock(s, "lk", ir.Shared(0))
	pb.Write(s, "b", ir.Shared(0))
	pb.Unlock(s, "lk", ir.Shared(0))
	pb.Done()

	pc := p.NewProc("writerC")
	pc.Write(s, "c", ir.Shared(0))
	pc.Done()
	return p.MustFinalize(), s
}

// findAccess locates (block, seq) of the first access to the named field.
func findAccess(t testing.TB, p *ir.Program, s *ir.StructType, field string) (ir.BlockID, int) {
	t.Helper()
	fi := s.FieldIndex(field)
	for _, b := range p.Blocks() {
		for seq, in := range b.FieldInstrs() {
			if in.Op == ir.OpField && in.Field == fi {
				return b.Global, seq
			}
		}
	}
	t.Fatalf("no access to %s", field)
	return 0, 0
}

func TestHeldSetsAndExclusion(t *testing.T) {
	p, s := buildLocked(t)
	info, err := Analyze(p, []string{"writerA", "writerB", "writerC"})
	if err != nil {
		t.Fatal(err)
	}
	ba, sa := findAccess(t, p, s, "a")
	bb, sb := findAccess(t, p, s, "b")
	bc, sc := findAccess(t, p, s, "c")

	if held := info.HeldAt(ba, sa); len(held) != 1 || held[0].Field != s.FieldIndex("lk") {
		t.Fatalf("held at a = %v", held)
	}
	if held := info.HeldAt(bc, sc); len(held) != 0 {
		t.Fatalf("held at c = %v, want none", held)
	}

	// a and b are both under the one shared lock: the same key, on a
	// shared instance, is held at each.
	ha, hb := info.HeldAt(ba, sa), info.HeldAt(bb, sb)
	if len(hb) != 1 || hb[0] != ha[0] || ha[0].Inst.Kind != ir.InstShared {
		t.Fatalf("held at a = %v, at b = %v: want one shared-instance lock in common", ha, hb)
	}
	for _, proc := range []string{"writerA", "writerB", "writerC"} {
		if !info.Balanced(proc) {
			t.Fatalf("%s should be balanced", proc)
		}
	}
}

func TestPerInstanceLockExcludesNothing(t *testing.T) {
	p := ir.NewProgram("perinst")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	w := p.NewProc("w")
	w.Lock(s, "lk", ir.Param(0))
	w.Write(s, "a", ir.Param(0))
	w.Write(s, "b", ir.Param(0))
	w.Unlock(s, "lk", ir.Param(0))
	w.Done()
	p.MustFinalize()

	info, err := Analyze(p, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	ba, sa := findAccess(t, p, s, "a")
	bb, sb := findAccess(t, p, s, "b")
	// The lock IS held at both accesses...
	ha, hb := info.HeldAt(ba, sa), info.HeldAt(bb, sb)
	if len(ha) != 1 || len(hb) != 1 {
		t.Fatalf("per-instance lock not tracked: held at a = %v, at b = %v", ha, hb)
	}
	// ...but two threads hold different instances: no mutual exclusion.
	if ha[0].Inst.Kind == ir.InstShared || hb[0].Inst.Kind == ir.InstShared {
		t.Fatal("per-instance lock must not establish cross-thread exclusion")
	}
}

func TestInterproceduralPropagation(t *testing.T) {
	p := ir.NewProgram("interproc")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"))
	p.AddStruct(s)
	callee := p.NewProc("callee")
	callee.Write(s, "a", ir.Shared(0))
	callee.Done()
	caller := p.NewProc("caller")
	caller.Lock(s, "lk", ir.Shared(0))
	caller.Call("callee")
	caller.Unlock(s, "lk", ir.Shared(0))
	caller.Done()
	p.MustFinalize()

	info, err := Analyze(p, []string{"caller"})
	if err != nil {
		t.Fatal(err)
	}
	ba, sa := findAccess(t, p, s, "a")
	if held := info.HeldAt(ba, sa); len(held) != 1 {
		t.Fatalf("callee access should inherit the caller's lock, held=%v", held)
	}
}

func TestCallSiteIntersection(t *testing.T) {
	// callee called once under the lock and once without: held = ∅.
	p := ir.NewProgram("mixedctx")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"))
	p.AddStruct(s)
	callee := p.NewProc("callee")
	callee.Write(s, "a", ir.Shared(0))
	callee.Done()
	caller := p.NewProc("caller")
	caller.Lock(s, "lk", ir.Shared(0))
	caller.Call("callee")
	caller.Unlock(s, "lk", ir.Shared(0))
	caller.Call("callee") // unlocked call site
	caller.Done()
	p.MustFinalize()

	info, err := Analyze(p, []string{"caller"})
	if err != nil {
		t.Fatal(err)
	}
	ba, sa := findAccess(t, p, s, "a")
	if held := info.HeldAt(ba, sa); len(held) != 0 {
		t.Fatalf("mixed call contexts must intersect to empty, held=%v", held)
	}
}

func TestEntryProcIgnoresCallSites(t *testing.T) {
	// A proc that is both a thread entry and called under a lock: entry
	// status wins (a thread may start there with nothing held).
	p := ir.NewProgram("dualentry")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"))
	p.AddStruct(s)
	both := p.NewProc("both")
	both.Write(s, "a", ir.Shared(0))
	both.Done()
	caller := p.NewProc("caller")
	caller.Lock(s, "lk", ir.Shared(0))
	caller.Call("both")
	caller.Unlock(s, "lk", ir.Shared(0))
	caller.Done()
	p.MustFinalize()

	info, err := Analyze(p, []string{"caller", "both"})
	if err != nil {
		t.Fatal(err)
	}
	ba, sa := findAccess(t, p, s, "a")
	if held := info.HeldAt(ba, sa); len(held) != 0 {
		t.Fatalf("entry proc must start with nothing held, held=%v", held)
	}
}

func TestBranchIntersection(t *testing.T) {
	// Lock acquired in only one branch arm: after the join nothing is
	// definitely held; inside the locked arm it is.
	p := ir.NewProgram("branchy")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	f := p.NewProc("f")
	f.IfElse(0.5,
		func(b *ir.Builder) {
			b.Lock(s, "lk", ir.Shared(0))
			b.Write(s, "a", ir.Shared(0))
			b.Unlock(s, "lk", ir.Shared(0))
		},
		func(b *ir.Builder) {
			b.Compute(1)
		},
	)
	f.Write(s, "b", ir.Shared(0))
	f.Done()
	p.MustFinalize()

	info, err := Analyze(p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	ba, sa := findAccess(t, p, s, "a")
	bb, sb := findAccess(t, p, s, "b")
	if len(info.HeldAt(ba, sa)) != 1 {
		t.Fatal("locked-arm access should hold the lock")
	}
	if len(info.HeldAt(bb, sb)) != 0 {
		t.Fatal("post-join access must not claim the lock")
	}
	if !info.Balanced("f") {
		t.Fatal("f is balanced")
	}
}

func TestLoopBalance(t *testing.T) {
	p := ir.NewProgram("loopy")
	s := ir.NewStruct("S", ir.I64("lk"), ir.I64("a"))
	p.AddStruct(s)
	f := p.NewProc("balanced")
	f.Loop(10, func(b *ir.Builder) {
		b.Lock(s, "lk", ir.Shared(0))
		b.Write(s, "a", ir.Shared(0))
		b.Unlock(s, "lk", ir.Shared(0))
	})
	f.Done()
	p.MustFinalize()
	info, err := Analyze(p, []string{"balanced"})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Balanced("balanced") {
		t.Fatal("balanced loop misclassified")
	}
	ba, sa := findAccess(t, p, s, "a")
	if len(info.HeldAt(ba, sa)) != 1 {
		t.Fatal("in-loop access should hold the lock")
	}
}

func TestAnalyzeUnknownEntry(t *testing.T) {
	p := ir.NewProgram("e")
	f := p.NewProc("f")
	f.Compute(1)
	f.Done()
	p.MustFinalize()
	if _, err := Analyze(p, []string{"ghost"}); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

func TestAnalyzeNilProgram(t *testing.T) {
	if _, err := Analyze(nil, nil); err == nil {
		t.Fatal("nil program accepted")
	}
}

// TestAnalyzeDamagedCFGNoPanic mutates a finalized program the way
// measurement-fault tests damage CFGs; Analyze must degrade to an error
// (or a conservative result) instead of panicking.
func TestAnalyzeDamagedCFGNoPanic(t *testing.T) {
	t.Run("nil-instr-struct", func(t *testing.T) {
		p, s := buildLocked(t)
		for _, b := range p.Blocks() {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpLock {
					b.Instrs[i].Struct = nil
				}
			}
		}
		info, err := Analyze(p, []string{"writerA", "writerB", "writerC"})
		if err == nil && info == nil {
			t.Fatal("nil info without error")
		}
		if err == nil {
			// Damaged lock keys lose their struct name, so they can never
			// ground exclusion on real fields.
			for _, field := range []string{"a", "b"} {
				b, seq := findAccess(t, p, s, field)
				for _, k := range info.HeldAt(b, seq) {
					if k.Struct != "" {
						t.Fatalf("damaged lock key %v held at %s", k, field)
					}
				}
			}
		}
	})
	t.Run("nil-exec-block", func(t *testing.T) {
		p, _ := buildLocked(t)
		for _, pr := range p.Procs {
			for i := range pr.Tree {
				if eb, ok := pr.Tree[i].(*ir.ExecBlock); ok {
					eb.Block = nil
					break
				}
			}
		}
		if _, err := Analyze(p, []string{"writerA", "writerB", "writerC"}); err != nil {
			t.Logf("degraded with error (fine): %v", err)
		}
	})
	t.Run("nil-tree-node", func(t *testing.T) {
		p, _ := buildLocked(t)
		pr := p.Proc("writerA")
		pr.Tree[0] = nil
		if _, err := Analyze(p, []string{"writerA", "writerB", "writerC"}); err != nil {
			t.Logf("degraded with error (fine): %v", err)
		}
	})
}
