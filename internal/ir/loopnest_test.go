package ir_test

import (
	"slices"
	"testing"

	"structlayout/internal/ir"
	"structlayout/internal/irtext/irtexttest"
	"structlayout/internal/workload"
)

// TestLoopNest checks the Builder's loop nest against the execution tree
// the interpreter walks, over the hand-built programs of ir_test.go, the SDET
// suite and every .slp program in the repository: a preorder walk of each
// procedure's tree (an ExecLoop's header before its body, an ExecIf's Cond
// before its arms and Join after them) must visit every block once, in
// Index order, each block's Loop must be the innermost enclosing ExecLoop's
// loop (a header's is its own), each Loop.Blocks must be exactly the blocks
// visited with that loop innermost, and Procedure.Loops must be the
// ExecLoop preorder with TripCount equal to Count.
func TestLoopNest(t *testing.T) {
	for name, p := range repoPrograms(t) {
		for _, pr := range p.Procs {
			if err := checkLoopNest(pr); err != "" {
				t.Errorf("%s: %s: %s", name, pr.Name, err)
			}
		}
	}
}

// repoPrograms returns the hand-built programs of ir_test.go, the SDET
// suite and every .slp program in the repository, keyed by name (a .slp
// program by its repository path).
func repoPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	for _, p := range ir.LoweringPrograms() {
		progs[p.Name] = p
	}
	suite, err := workload.NewSuite(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	progs["sdet"] = suite.Prog
	for _, slp := range irtexttest.Committed(t) {
		progs[slp.Path] = slp.File.Prog
	}
	return progs
}

// checkLoopNest returns the first way pr's blocks and loops disagree with
// its execution tree, or "" if they agree.
func checkLoopNest(pr *ir.Procedure) string {
	var visited []*ir.BasicBlock
	var loops []*ir.Loop
	innermostOf := map[*ir.Loop][]*ir.BasicBlock{}
	var bad string
	visit := func(b *ir.BasicBlock, innermost *ir.Loop) {
		visited = append(visited, b)
		if b.Loop != innermost && bad == "" {
			bad = b.Name() + " is filed under loop " + loopName(b.Loop) + ", but its innermost enclosing loop is " + loopName(innermost)
		}
		if innermost != nil {
			innermostOf[innermost] = append(innermostOf[innermost], b)
		}
	}
	var walk func(nodes []ir.ExecNode, innermost *ir.Loop)
	walk = func(nodes []ir.ExecNode, innermost *ir.Loop) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *ir.ExecBlock:
				visit(n.Block, innermost)
			case *ir.ExecLoop:
				loops = append(loops, n.Loop)
				if n.Loop.TripCount != n.Count && bad == "" {
					bad = n.Loop.Name() + ": TripCount differs from the tree's Count"
				}
				visit(n.Loop.Header, n.Loop)
				walk(n.Body, n.Loop)
			case *ir.ExecIf:
				visit(n.Cond, innermost)
				walk(n.Then, innermost)
				walk(n.Else, innermost)
				visit(n.Join, innermost)
			}
		}
	}
	walk(pr.Tree, nil)
	if bad != "" {
		return bad
	}
	if len(visited) != len(pr.Blocks) {
		return "the tree visits a different number of blocks than Blocks holds"
	}
	for i, b := range visited {
		if b != pr.Blocks[i] || b.Index != i {
			return "the tree does not visit Blocks once each in Index order"
		}
	}
	if !slices.Equal(loops, pr.Loops) {
		return "Loops is not the tree's loop preorder"
	}
	for i, l := range pr.Loops {
		if l.Index != i {
			return l.Name() + ": Index differs from its preorder position"
		}
		if !slices.Equal(l.Blocks, innermostOf[l]) {
			return l.Name() + ": Blocks differ from the blocks the tree visits with it innermost"
		}
	}
	return ""
}

func loopName(l *ir.Loop) string {
	if l == nil {
		return "none"
	}
	return l.Name()
}
