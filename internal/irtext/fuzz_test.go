package irtext

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"structlayout/internal/ir"
)

// FuzzParse checks that arbitrary input never panics the parser, that
// anything it accepts survives a format/reparse round trip with its AST
// intact (diffFiles), and that an accepted program's call order keeps its
// contract. `go test` runs the seed corpus; `go test -fuzz=FuzzParse
// ./internal/irtext` explores.
func FuzzParse(f *testing.F) {
	f.Add(demo)
	f.Add("program p\nproc f { compute 1 }\n")
	f.Add("program p struct S { a i64 } proc f { read S.a shared 0 }")
	f.Add("program p proc f { if 0.5 { compute 1 } else { compute 2 } }")
	f.Add("program p proc f { loop 3 { compute 1 } } thread 0 f iters 2")
	f.Add("program p # comment only")
	f.Add("}{..")
	f.Add("program p region r 64 shared proc f { memrand r write }")
	f.Add("program A region userbuf 4096 shared proc f { memsweep userbuf write 0 }")
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
		if d := diffFiles(file, again); d != "" {
			t.Fatalf("round trip changed the file (%s) for input %q\nformatted:\n%s", d, src, text)
		}
		if msg := checkCallOrder(file.Prog); msg != "" {
			t.Fatalf("%s for input %q", msg, src)
		}
	})
}

// diffFiles returns the first difference between two files' ASTs — the
// program name, structs, regions, every procedure body, arenas and
// threads — or "" when they are equal. An absent and an empty else arm or
// parameter list compare equal, since the program runs them alike.
func diffFiles(a, b *File) string {
	pa, pb := a.Prog, b.Prog
	if pa.Name != pb.Name {
		return fmt.Sprintf("program %q vs %q", pa.Name, pb.Name)
	}
	if len(pa.Structs) != len(pb.Structs) {
		return fmt.Sprintf("%d structs vs %d", len(pa.Structs), len(pb.Structs))
	}
	for i, st := range pa.Structs {
		if !reflect.DeepEqual(st, pb.Structs[i]) {
			return fmt.Sprintf("struct %v vs %v", *st, *pb.Structs[i])
		}
	}
	if !reflect.DeepEqual(pa.Regions, pb.Regions) {
		return "regions differ"
	}
	if len(pa.Procs) != len(pb.Procs) {
		return fmt.Sprintf("%d procs vs %d", len(pa.Procs), len(pb.Procs))
	}
	for i, pr := range pa.Procs {
		if pr.Name != pb.Procs[i].Name {
			return fmt.Sprintf("proc %s vs %s", pr.Name, pb.Procs[i].Name)
		}
		if d := diffStmts(pr.Name, pr.Body, pb.Procs[i].Body); d != "" {
			return d
		}
	}
	if !maps.Equal(a.Arenas, b.Arenas) {
		return fmt.Sprintf("arenas %v vs %v", a.Arenas, b.Arenas)
	}
	if len(a.Threads) != len(b.Threads) {
		return fmt.Sprintf("%d threads vs %d", len(a.Threads), len(b.Threads))
	}
	for i, ta := range a.Threads {
		tb := b.Threads[i]
		if ta.CPU != tb.CPU || ta.Proc != tb.Proc || ta.Iters != tb.Iters || !slices.Equal(ta.Params, tb.Params) {
			return fmt.Sprintf("thread %+v vs %+v", ta, tb)
		}
	}
	return ""
}

// diffStmts compares two statement lists, naming the first difference by
// its position under where.
func diffStmts(where string, a, b []ir.Stmt) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d statements vs %d", where, len(a), len(b))
	}
	for i, sa := range a {
		at := fmt.Sprintf("%s[%d]", where, i)
		switch sa := sa.(type) {
		case *ir.LoopStmt:
			sb, ok := b[i].(*ir.LoopStmt)
			if !ok || sa.Count != sb.Count {
				return fmt.Sprintf("%s: loop %d vs %T %+v", at, sa.Count, b[i], b[i])
			}
			if d := diffStmts(at+".body", sa.Body, sb.Body); d != "" {
				return d
			}
		case *ir.IfStmt:
			sb, ok := b[i].(*ir.IfStmt)
			if !ok || sa.Prob != sb.Prob {
				return fmt.Sprintf("%s: if %v vs %T %+v", at, sa.Prob, b[i], b[i])
			}
			if d := diffStmts(at+".then", sa.Then, sb.Then); d != "" {
				return d
			}
			if d := diffStmts(at+".else", sa.Else, sb.Else); d != "" {
				return d
			}
		case *ir.SpawnStmt:
			sb, ok := b[i].(*ir.SpawnStmt)
			if !ok || sa.Handle != sb.Handle || sa.CPU != sb.CPU || sa.Callee != sb.Callee || !slices.Equal(sa.Params, sb.Params) {
				return fmt.Sprintf("%s: %+v vs %T %+v", at, *sa, b[i], b[i])
			}
		default:
			if !reflect.DeepEqual(sa, b[i]) {
				return fmt.Sprintf("%s: %T %+v vs %T %+v", at, sa, sa, b[i], b[i])
			}
		}
	}
	return ""
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
