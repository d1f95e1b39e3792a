package exec

import (
	"sort"
	"testing"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
)

// TestMemoryDistanceEffect validates §2's MemoryDistance concept in the
// simulator itself: when a large streaming sweep separates two field
// accesses, co-locating the fields stops helping — the first field's line
// is evicted before the second access arrives.
func TestMemoryDistanceEffect(t *testing.T) {
	build := func() (*ir.Program, *ir.StructType) {
		p := ir.NewProgram("md")
		s := ir.NewStruct("S", ir.I64("f1"), ir.I64("f2"))
		p.AddStruct(s)
		p.AddRegion("big", 1<<21, false)
		b := p.NewProc("near") // f1 then f2, nothing in between
		b.Loop(2000, func(b *ir.Builder) {
			b.Read(s, "f1", ir.LoopVar())
			b.Read(s, "f2", ir.LoopVar())
		})
		b.Done()
		c := p.NewProc("far") // a cache-sized sweep separates the accesses
		c.Loop(2000, func(b *ir.Builder) {
			b.Read(s, "f1", ir.LoopVar())
			b.Loop(32, func(b *ir.Builder) {
				b.MemSweep("big", ir.Read, 128) // 4 KiB > the 2 KiB test cache
			})
			b.Read(s, "f2", ir.LoopVar())
		})
		c.Done()
		return p.MustFinalize(), s
	}

	run := func(proc string, together bool) uint64 {
		p, s := build()
		var lay *layout.Layout
		if together {
			lay = origLayout(t, s)
		} else {
			var err error
			lay, err = layout.PackClusters(s, "apart", [][]int{{0}, {1}}, 128,
				func(int, int) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
		}
		r, err := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.SmallCache(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Arena big enough that the walk itself also misses.
		if err := r.DefineArena(lay, 512); err != nil {
			t.Fatal(err)
		}
		if err := r.AddThread(0, proc, nil, 1); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Count only the struct fields' misses; the sweep's own misses are
		// constant background.
		var misses uint64
		for ref, fs := range res.Fields {
			if ref.Struct == "S" {
				misses += fs.Misses
			}
		}
		return misses
	}

	// Without intervening traffic, co-location halves the misses.
	nearTogether := run("near", true)
	nearApart := run("near", false)
	if nearTogether*3 > nearApart*2 {
		t.Fatalf("co-location should cut misses: together=%d apart=%d", nearTogether, nearApart)
	}
	// With the sweep in between, the benefit collapses (both layouts miss
	// on nearly every access).
	farTogether := run("far", true)
	farApart := run("far", false)
	ratio := float64(farApart) / float64(farTogether)
	if ratio > 1.15 {
		t.Fatalf("with large MemoryDistance co-location should not matter: together=%d apart=%d", farTogether, farApart)
	}
}

// TestLockHandoffOrdering: a waiter never enters the critical section
// before the holder released it, and handoff is FIFO by arrival.
func TestLockHandoffOrdering(t *testing.T) {
	p := ir.NewProgram("handoff")
	s := ir.NewStruct("L", ir.I64("lk"), ir.I64("stamp"))
	p.AddStruct(s)
	for i := 0; i < 3; i++ {
		b := p.NewProc(procName(i))
		b.Lock(s, "lk", ir.Shared(0))
		b.Write(s, "stamp", ir.Shared(0))
		b.Compute(5000)
		b.Unlock(s, "lk", ir.Shared(0))
		b.Done()
	}
	p.MustFinalize()
	r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 1})
	_ = r.DefineArena(origLayout(t, s), 1)
	for i := 0; i < 3; i++ {
		_ = r.AddThread(i, procName(i), nil, 1)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Three 5000-cycle critical sections strictly serialize.
	if res.Cycles < 15000 {
		t.Fatalf("cycles = %d; expected full serialization of 3x5000", res.Cycles)
	}
	// Finish times are pairwise separated by at least one critical section:
	// no two threads were ever inside it together. (Which thread wins the
	// initial tie is a deterministic scheduler artifact, not id order.)
	ts := append([]int64(nil), res.ThreadCycles...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for i := 1; i < len(ts); i++ {
		if ts[i]-ts[i-1] < 5000 {
			t.Fatalf("critical sections overlapped: finish times %v", res.ThreadCycles)
		}
	}
}

// TestPerThreadRegionIsolation: per-thread regions never produce coherence
// traffic between threads.
func TestPerThreadRegionIsolation(t *testing.T) {
	p := ir.NewProgram("priv")
	p.AddRegion("stack", 1<<16, true)
	b := p.NewProc("main")
	b.Loop(2000, func(b *ir.Builder) {
		b.MemSweep("stack", ir.Write, 64)
	})
	b.Done()
	p.MustFinalize()
	r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 1})
	for cpu := 0; cpu < 4; cpu++ {
		_ = r.AddThread(cpu, "main", nil, 2)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherence.CohMisses != 0 || res.Coherence.Invalidations != 0 {
		t.Fatalf("per-thread region produced coherence traffic: %+v", res.Coherence)
	}
}

// TestArenaColoring: instance strides are always an odd number of lines,
// so same-offset lines of successive instances cover every cache set.
func TestArenaColoring(t *testing.T) {
	for _, nFields := range []int{1, 3, 16, 17, 32, 33} {
		fields := make([]ir.Field, nFields)
		for i := range fields {
			fields[i] = i64f(i)
		}
		p := ir.NewProgram("color")
		s := ir.NewStruct("C", fields...)
		p.AddStruct(s)
		b := p.NewProc("main")
		b.ReadI(s, 0, ir.Shared(0))
		b.Done()
		p.MustFinalize()
		r, _ := NewRunner(p, Config{Topo: machine.Uniprocessor(), Cache: coherence.DefaultItanium(), Seed: 1})
		if err := r.DefineArena(origLayout(t, s), 8); err != nil {
			t.Fatal(err)
		}
		a := r.arenas["C"]
		lines := a.stride / 128
		if lines%2 != 1 {
			t.Fatalf("%d fields: stride %d lines is even", nFields, lines)
		}
		if a.stride < int64(origLayout(t, s).LineAlignedSize()) {
			t.Fatalf("%d fields: stride smaller than the layout", nFields)
		}
	}
}

// TestFieldStatAccounting: per-field access totals equal the dynamic field
// instruction count from the profile.
func TestFieldStatAccounting(t *testing.T) {
	p, s, names := buildCounterWorkload(4, 700)
	r, _ := NewRunner(p, Config{Topo: machine.Bus4(), Cache: coherence.DefaultItanium(), Seed: 2})
	_ = r.DefineArena(origLayout(t, s), 1)
	for cpu := 0; cpu < 4; cpu++ {
		_ = r.AddThread(cpu, names[cpu], nil, 1)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var fromStats uint64
	for _, fs := range res.Fields {
		fromStats += fs.Accesses
	}
	var fromProfile float64
	for _, blk := range p.Blocks() {
		fromProfile += res.Profile.BlockCount(blk) * float64(len(blk.FieldInstrs()))
	}
	if float64(fromStats) != fromProfile {
		t.Fatalf("field stats %d != profile-derived %v", fromStats, fromProfile)
	}
}
