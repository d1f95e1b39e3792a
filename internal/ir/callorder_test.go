package ir_test

import (
	"slices"
	"strings"
	"testing"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// TestCallOrder checks Program.CallOrder on the hand-built programs, the
// SDET suite and every .slp program in the repository: each procedure
// appears once, every call edge points forward, and the order is the
// reverse postorder of a depth-first walk over call edges that starts
// from procedures in registration order and visits callees in
// registration order.
func TestCallOrder(t *testing.T) {
	progs := repoPrograms(t)
	if len(progs) < 18 {
		t.Fatalf("%d programs, want the 4 hand-built ones, SDET and 13 .slp files", len(progs))
	}
	for name, p := range progs {
		if msg := checkCallOrder(p); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
	// No program above lets the order in which the walk visits sibling
	// callees show in the result; this one, registering callers first,
	// does.
	f, err := irtext.Parse(siblingsSrc)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkCallOrder(f.Prog); msg != "" {
		t.Error(msg)
	}
	var names []string
	for _, pr := range f.Prog.CallOrder() {
		names = append(names, pr.Name)
	}
	if got, want := strings.Join(names, " "), "top right left leaf"; got != want {
		t.Errorf("call order %q, want %q", got, want)
	}
}

// siblingsSrc registers callers before callees and calls right before
// left, which is registered first: the walk visits left first, so right
// precedes it in the reverse postorder.
const siblingsSrc = `program siblings
proc top { call right call left }
proc left { call leaf }
proc right { call leaf }
proc leaf { compute 1 }
`

// TestCallOrderNilBeforeFinalize: a program Finalize has not accepted
// has no call order, and one Finalize rejects keeps none.
func TestCallOrderNilBeforeFinalize(t *testing.T) {
	p := ir.NewProgram("unfinalized")
	p.NewProc("f").Compute(1).Done()
	if p.CallOrder() != nil {
		t.Fatal("call order before Finalize")
	}
	rec := ir.NewProgram("rec")
	rec.NewProc("a").Call("b").Done()
	rec.NewProc("b").Call("a").Done()
	if rec.Finalize() == nil || rec.CallOrder() != nil {
		t.Fatal("recursive program finalized with a call order")
	}
	empty := ir.NewProgram("empty").MustFinalize()
	if order := empty.CallOrder(); order == nil || len(order) != 0 {
		t.Fatalf("empty program: call order %v, want empty and non-nil", order)
	}
}

// checkCallOrder returns the first way p's call order breaks its
// contract, or "" if it keeps it.
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
