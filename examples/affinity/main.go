// Affinity reproduces the paper's running example: the code fragment of
// Figure 4 and the affinity graph of Figure 5.
//
//	/* entry PBO count: n */
//	S.f1 = ;  S.f2 = ;
//	for (int i = 0; i < N; i++) {
//	    S.f3 = ;  = S.f3 + S.f1;  = S.f3;
//	}
//
// Expected (Figure 5): edge f1–f2 with weight n, edge f1–f3 with weight N
// (per entry), hotness h(f1) = N + n, and the read/write annotations
// f1: R=N W=n, f2: R=0 W=n, f3: R=2N W=N.
//
//	go run ./examples/affinity
package main

import (
	"fmt"
	"log"

	"structlayout/internal/affinity"
	"structlayout/internal/ir"
	"structlayout/internal/profile"
)

func main() {
	const (
		n = 10  // entry PBO count
		N = 100 // loop execution count
	)
	prog := ir.NewProgram("figure4")
	s := ir.NewStruct("S", ir.I64("f1"), ir.I64("f2"), ir.I64("f3"))
	prog.AddStruct(s)

	snippet := prog.NewProc("snippet")
	snippet.Write(s, "f1", ir.Shared(0))
	snippet.Write(s, "f2", ir.Shared(0))
	snippet.Loop(N, func(b *ir.Builder) {
		b.Write(s, "f3", ir.Shared(0))
		b.Read(s, "f3", ir.Shared(0))
		b.Read(s, "f1", ir.Shared(0))
		b.Read(s, "f3", ir.Shared(0))
	})
	snippet.Done()

	caller := prog.NewProc("main")
	caller.Loop(n, func(b *ir.Builder) { b.Call("snippet") })
	caller.Done()
	prog.MustFinalize()

	pf, err := profile.StaticEstimate(prog, []string{"main"})
	if err != nil {
		log.Fatal(err)
	}
	g := affinity.Build(prog, pf, s)

	fmt.Printf("Figure 4 parameters: n=%d, N=%d\n\n", n, N)
	fmt.Print(g.Dump())

	fmt.Println("\nFigure 5 cross-check:")
	mismatches := 0
	check := func(what string, got, want float64) {
		status := "ok"
		if got != want {
			status = "MISMATCH"
			mismatches++
		}
		fmt.Printf("  %-28s got %8.6g  want %8.6g  [%s]\n", what, got, want, status)
	}
	check("w(f1,f2) = n", g.Weight(0, 1), n)
	check("w(f1,f3) = n*N", g.Weight(0, 2), n*N)
	check("w(f2,f3) = 0", g.Weight(1, 2), 0)
	check("hot(f1) = n*(N+1)", g.Hotness[0], n*(N+1))
	check("hot(f3) = 3nN", g.Hotness[2], 3*n*N)
	check("R(f3) = 2nN", g.Reads[2], 2*n*N)
	check("W(f3) = nN", g.Writes[2], n*N)
	check("R(f2) = 0", g.Reads[1], 0)
	check("W(f2) = n", g.Writes[1], n)
	if mismatches > 0 {
		log.Fatalf("%d Figure 5 check(s) mismatched", mismatches)
	}
}
