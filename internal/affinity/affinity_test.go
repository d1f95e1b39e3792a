package affinity

import (
	"strings"
	"testing"

	"structlayout/internal/ir"
	"structlayout/internal/profile"
)

// figure4 reproduces the paper's running example (Figures 4 and 5):
//
//	/* entry PBO count: n */
//	S.f1 = ; S.f2 = ;
//	for i in 0..N {  S.f3 = ;  = S.f3 + S.f1;  = S.f3  }
//
// with entry count folded to 1 run of the snippet and the snippet executed
// n times via an outer caller loop.
func figure4(t testing.TB, n, N int64) (*ir.Program, *ir.StructType, *profile.Profile) {
	t.Helper()
	p := ir.NewProgram("fig4")
	s := ir.NewStruct("S", ir.I64("f1"), ir.I64("f2"), ir.I64("f3"))
	p.AddStruct(s)
	b := p.NewProc("snippet")
	b.Write(s, "f1", ir.Shared(0))
	b.Write(s, "f2", ir.Shared(0))
	b.Loop(N, func(b *ir.Builder) {
		b.Write(s, "f3", ir.Shared(0))
		b.Read(s, "f3", ir.Shared(0))
		b.Read(s, "f1", ir.Shared(0))
		b.Read(s, "f3", ir.Shared(0))
	})
	b.Done()
	caller := p.NewProc("main")
	caller.Loop(n, func(b *ir.Builder) { b.Call("snippet") })
	caller.Done()
	p.MustFinalize()
	pf, err := profile.StaticEstimate(p, []string{"main"})
	if err != nil {
		t.Fatal(err)
	}
	return p, s, pf
}

func TestFigure5AffinityGraph(t *testing.T) {
	const n, N = 10, 100
	p, s, pf := figure4(t, n, N)
	g := Build(p, pf, s)

	f1, f2, f3 := 0, 1, 2
	// Straight-line group {f1,f2}: weight n (min(n,n)).
	if got := g.Weight(f1, f2); got != n {
		t.Fatalf("w(f1,f2) = %v, want %v", got, n)
	}
	// Loop group {f1,f3}: counts f1=nN, f3=3nN; min = nN.
	if got := g.Weight(f1, f3); got != n*N {
		t.Fatalf("w(f1,f3) = %v, want %v", got, n*N)
	}
	// f2 and f3 never share a granularity.
	if got := g.Weight(f2, f3); got != 0 {
		t.Fatalf("w(f2,f3) = %v, want 0", got)
	}
	// Figure 5 annotations: f1 h=N+n per snippet run (times n runs).
	if got := g.Hotness[f1]; got != n*(N+1) {
		t.Fatalf("hot(f1) = %v, want %v", got, n*(N+1))
	}
	if got := g.Hotness[f3]; got != 3*n*N {
		t.Fatalf("hot(f3) = %v", got)
	}
	if g.Reads[f3] != 2*n*N || g.Writes[f3] != n*N {
		t.Fatalf("f3 R=%v W=%v", g.Reads[f3], g.Writes[f3])
	}
	if g.Reads[f2] != 0 || g.Writes[f2] != n {
		t.Fatalf("f2 R=%v W=%v", g.Reads[f2], g.Writes[f2])
	}
}

func TestMinimumHeuristicBoundsPlain(t *testing.T) {
	// Minimum-heuristic weights never exceed group-count-based weights when
	// a field is accessed once per iteration.
	p := ir.NewProgram("min")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Loop(1000, func(b *ir.Builder) {
		b.Read(s, "a", ir.Shared(0))
		b.If(0.1, func(b *ir.Builder) {
			b.Read(s, "b", ir.Shared(0))
		})
	})
	b.Done()
	p.MustFinalize()
	pf, _ := profile.StaticEstimate(p, []string{"f"})

	g := Build(p, pf, s)
	// b executes only 10% of iterations; the minimum heuristic must see
	// that, while the plain CGO'06 heuristic weights every pair by the
	// loop group's Weight ("both hot and cold basic blocks inside the
	// loop are weighted equally").
	var loop *Group
	for i := range g.Groups {
		if g.Groups[i].Kind == LoopGroup {
			loop = &g.Groups[i]
		}
	}
	if loop == nil || loop.Weight != 1000 {
		t.Fatalf("loop group = %+v, want weight 1000", loop)
	}
	if wm := g.Weight(0, 1); wm >= loop.Weight {
		t.Fatalf("min heuristic (%v) should be below the plain group weight (%v)", wm, loop.Weight)
	}
	if got := g.Weight(0, 1); got != 100 {
		t.Fatalf("min weight = %v, want 100", got)
	}
}

// TestStoreOnlyPairContributesNothing: only the idealized model's store
// discount (§2) makes a store-only pair contribute nothing. The implemented
// pipeline, whose Figure 5 keeps the write-write edge f1–f2, weights the
// pair like any other, and so does Build.
func TestStoreOnlyPairContributesNothing(t *testing.T) {
	p := ir.NewProgram("stores")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Loop(50, func(b *ir.Builder) {
		b.Write(s, "a", ir.Shared(0))
		b.Write(s, "b", ir.Shared(0))
	})
	b.Done()
	p.MustFinalize()
	pf, _ := profile.StaticEstimate(p, []string{"f"})

	g := Build(p, pf, s)
	if got := g.Weight(0, 1); got != 50 {
		t.Fatalf("store-only pair weight = %v, want 50 (Figure 5 keeps write-write edges)", got)
	}
}

func TestNestedLoopsFormSeparateGroups(t *testing.T) {
	p := ir.NewProgram("nest")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"), ir.I64("c"))
	p.AddStruct(s)
	b := p.NewProc("f")
	b.Loop(10, func(b *ir.Builder) {
		b.Read(s, "a", ir.Shared(0))
		b.Loop(100, func(b *ir.Builder) {
			b.Read(s, "b", ir.Shared(0))
			b.Read(s, "c", ir.Shared(0))
		})
	})
	b.Done()
	p.MustFinalize()
	pf, _ := profile.StaticEstimate(p, []string{"f"})
	g := Build(p, pf, s)

	// b,c pair in the inner loop: counts 1000 each.
	if got := g.Weight(1, 2); got != 1000 {
		t.Fatalf("w(b,c) = %v, want 1000", got)
	}
	// a is only in the outer loop group; inner-loop fields are not.
	if got := g.Weight(0, 1); got != 0 {
		t.Fatalf("w(a,b) = %v, want 0 (different granularity)", got)
	}
	loopGroups := 0
	for _, gr := range g.Groups {
		if gr.Kind == LoopGroup {
			loopGroups++
		}
	}
	if loopGroups != 2 {
		t.Fatalf("loop groups = %d, want 2", loopGroups)
	}
}

func TestIntraProceduralOnly(t *testing.T) {
	// Fields accessed in different procedures get no affinity even when
	// one calls the other (the paper's approximation §3.1).
	p := ir.NewProgram("interproc")
	s := ir.NewStruct("S", ir.I64("a"), ir.I64("b"))
	p.AddStruct(s)
	callee := p.NewProc("callee")
	callee.Read(s, "b", ir.Shared(0))
	callee.Done()
	caller := p.NewProc("caller")
	caller.Loop(100, func(b *ir.Builder) {
		b.Read(s, "a", ir.Shared(0))
		b.Call("callee")
	})
	caller.Done()
	p.MustFinalize()
	pf, _ := profile.StaticEstimate(p, []string{"caller"})
	g := Build(p, pf, s)
	if got := g.Weight(0, 1); got != 0 {
		t.Fatalf("cross-procedure affinity = %v, want 0", got)
	}
	// Both fields still count as hot.
	if g.Hotness[0] != 100 || g.Hotness[1] != 100 {
		t.Fatalf("hotness = %v/%v", g.Hotness[0], g.Hotness[1])
	}
}

func TestHottestFirst(t *testing.T) {
	_, s, _ := figure4(t, 1, 10)
	g := &Graph{Struct: s, Hotness: map[int]float64{0: 5, 1: 50, 2: 5}}
	order := g.HottestFirst()
	if order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestDumpReport(t *testing.T) {
	p, s, pf := figure4(t, 3, 7)
	g := Build(p, pf, s)
	d := g.Dump()
	for _, want := range []string{"affinity graph for struct S", "field f3", "edge f1 -- f3", "group loop"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}
