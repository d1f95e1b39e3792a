package irtext

import (
	"slices"
	"testing"

	"structlayout/internal/ir"
)

// FuzzParse checks that arbitrary input never panics the parser, that
// anything it accepts survives a format/reparse round trip, and that an
// accepted program's call order keeps its contract. `go test` runs the
// seed corpus; `go test -fuzz=FuzzParse ./internal/irtext` explores.
func FuzzParse(f *testing.F) {
	f.Add(demo)
	f.Add("program p\nproc f { compute 1 }\n")
	f.Add("program p struct S { a i64 } proc f { read S.a shared 0 }")
	f.Add("program p proc f { if 0.5 { compute 1 } else { compute 2 } }")
	f.Add("program p proc f { loop 3 { compute 1 } } thread 0 f iters 2")
	f.Add("program p # comment only")
	f.Add("}{..")
	f.Add("program p region r 64 shared proc f { memrand r write }")
	f.Add("program p proc top { call right call left } proc left { call leaf } proc right { call leaf } proc leaf { compute 1 }")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		text := Format(file)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted output rejected: %v\ninput: %q\nformatted:\n%s", err, src, text)
		}
		if again.Prog.Dump() != file.Prog.Dump() || ir.Canonical(again.Prog) != ir.Canonical(file.Prog) {
			t.Fatalf("round trip changed program for input %q", src)
		}
		if msg := checkCallOrder(file.Prog); msg != "" {
			t.Fatalf("%s for input %q", msg, src)
		}
	})
}

// checkCallOrder returns the first way p's call order breaks its
// contract (every procedure once, every call edge forward, the reverse
// postorder of a depth-first walk over calls in registration order), or
// "" if it keeps it.
func checkCallOrder(p *ir.Program) string {
	order := p.CallOrder()
	pos := make(map[*ir.Procedure]int, len(order))
	for i, pr := range order {
		pos[pr] = i
	}
	if len(order) != len(p.Procs) || len(pos) != len(order) {
		return "call order does not hold every procedure once"
	}
	calls := func(from, to *ir.Procedure) bool {
		for _, b := range from.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee == to.Name {
					return true
				}
			}
		}
		return false
	}
	var post []*ir.Procedure
	visited := make(map[*ir.Procedure]bool)
	var visit func(pr *ir.Procedure) string
	visit = func(pr *ir.Procedure) string {
		visited[pr] = true
		for _, callee := range p.Procs {
			if !calls(pr, callee) {
				continue
			}
			if pos[callee] <= pos[pr] {
				return "call " + pr.Name + " -> " + callee.Name + " points backward"
			}
			if !visited[callee] {
				if msg := visit(callee); msg != "" {
					return msg
				}
			}
		}
		post = append(post, pr)
		return ""
	}
	for _, pr := range p.Procs {
		if !visited[pr] {
			if msg := visit(pr); msg != "" {
				return msg
			}
		}
	}
	slices.Reverse(post)
	if !slices.Equal(post, order) {
		return "call order differs from the reverse postorder of registration-order calls"
	}
	return ""
}
