package exec

import "structlayout/internal/ir"

// codeOp is the opcode of one flat-code instruction. The first five run a
// decoded instruction; the rest are the control instructions that stand
// for the nodes of a procedure's execution tree.
type codeOp uint8

const (
	cCompute codeOp = iota
	cField
	cMem
	cLock
	cUnlock
	// cBlock enters a block with instructions: count it, make it current.
	cBlock
	// cJoin enters an instruction-less block (an if's join, a procedure's
	// entry or exit): count it, make it current, charge one branch, tick.
	cJoin
	// cLoop enters a loop: count the entry and its trips, push the
	// induction slot at -1.
	cLoop
	// cHeader is a loop-header test: as cJoin on the header, then advance
	// the slot, or pop it and jump to target once the trips are done.
	cHeader
	// cIf is as cJoin on the condition block, then draws, and jumps to
	// target, the else arm, when the draw fails.
	cIf
	cJump // jump to target
	// cCall charges the call, pushes the return pc, ticks and jumps to
	// target, the callee's entry.
	cCall
	// cRet pops the return pc; on an empty return stack the script ends.
	cRet
)

// codeInstr is one instruction of a run's flat code.
type codeInstr struct {
	op codeOp
	// ahead marks a one-line field read that a thread past its turn may
	// complete from a cache probe (see readAhead).
	ahead  bool
	target int32
	block  *ir.BasicBlock // cBlock, cJoin, cHeader, cIf
	loop   *ir.ExecLoop   // cLoop, cHeader
	prob   float64        // cIf
	decInstr
}

// lower lowers every procedure's execution tree into one flat code array
// and points every thread at its entry procedure's first instruction.
// Each tree node becomes control instructions at the points where the tree
// walker (step) counts blocks, charges branches, draws and samples, so the
// two interpreters perform the same actions in the same order; only the
// frames are gone. A loop is
//
//	cLoop; head: cHeader(exit); body...; cJump(head); exit:
//
// and an if is
//
//	cIf(else); then...; cJump(join); else: else...; join: cJoin
//
// with the jump left out when the else arm is empty. Decoded instructions
// are copied in, compute runs already merged; the static-only fork/join
// markers have no dynamic effect and are dropped.
func (r *Runner) lower() {
	// Every block lowers to at most two instructions besides its own (an
	// if's condition and join to cIf, cJump and cJoin), a loop to one
	// more (cLoop, cHeader and cJump for its header), a procedure to its
	// cRet: size the code once.
	n := len(r.prog.Procs) + r.prog.NumLoops()
	for _, ds := range r.dec {
		n += 2 + len(ds)
	}
	r.code = make([]codeInstr, 0, n)
	entry := make(map[*ir.Procedure]int32, len(r.prog.Procs))
	for _, pr := range r.prog.Procs {
		entry[pr] = int32(len(r.code))
		r.lowerNodes(pr.Tree)
		r.code = append(r.code, codeInstr{op: cRet})
	}
	for i := range r.code {
		if in := &r.code[i]; in.op == cCall {
			in.target = entry[in.callee]
		}
	}
	for _, t := range r.threads {
		t.entryPC = int(entry[t.entry])
		t.pc = t.entryPC
	}
}

// lowerNodes appends the flat code of one node list.
func (r *Runner) lowerNodes(nodes []ir.ExecNode) {
	ahead := r.runAhead()
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			if len(n.Block.Instrs) == 0 {
				r.code = append(r.code, codeInstr{op: cJoin, block: n.Block})
				continue
			}
			r.code = append(r.code, codeInstr{op: cBlock, block: n.Block})
			for _, d := range r.dec[n.Block.Global] {
				in := codeInstr{decInstr: d}
				switch d.op {
				case ir.OpCompute:
					in.op = cCompute
				case ir.OpField:
					in.op = cField
					in.ahead = ahead && !d.write && d.oneLine
				case ir.OpMem:
					in.op = cMem
				case ir.OpLock:
					in.op = cLock
				case ir.OpUnlock:
					in.op = cUnlock
				case ir.OpCall:
					in.op = cCall
				default:
					continue
				}
				r.code = append(r.code, in)
			}
		case *ir.ExecLoop:
			r.code = append(r.code, codeInstr{op: cLoop, loop: n})
			head := len(r.code)
			r.code = append(r.code, codeInstr{op: cHeader, block: n.Loop.Header, loop: n})
			r.lowerNodes(n.Body)
			r.code = append(r.code, codeInstr{op: cJump, target: int32(head)})
			r.code[head].target = int32(len(r.code))
		case *ir.ExecIf:
			at := len(r.code)
			r.code = append(r.code, codeInstr{op: cIf, block: n.Cond, prob: n.Prob})
			r.lowerNodes(n.Then)
			if len(n.Else) > 0 {
				jump := len(r.code)
				r.code = append(r.code, codeInstr{op: cJump})
				r.code[at].target = int32(len(r.code))
				r.lowerNodes(n.Else)
				r.code[jump].target = int32(len(r.code))
			} else {
				r.code[at].target = int32(len(r.code))
			}
			r.code = append(r.code, codeInstr{op: cJoin, block: n.Join})
		}
	}
}

// runUntil advances one thread through the flat code until it yields the
// CPU: it would execute a shared operation without holding the
// lexicographic-minimum (time, id) and the operation does not commute, it
// parks on a lock, it wakes another thread, or it finishes. A program
// counter and a stack of return pcs are the whole interpreter state; the
// thread resumes at its pc on its next turn.
//
// The yield condition is checked before every shared instruction (see
// Runner.run for the invariant), at the same instructions and against the
// same keys as the tree walker, and every count, branch cost, draw and
// collector tick happens where the walker does it, so every interleaving
// and statistic is bit-identical to the slow path's.
func (r *Runner) runUntil(t *thread, limit int64) error {
	if r.slowPath {
		for {
			yielded, err := r.step(t, limit)
			if err != nil {
				return err
			}
			if yielded || t.done || t.parked || len(r.woken) > 0 {
				return nil
			}
		}
	}
	code := r.code
	pc := t.pc
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case cCompute:
			t.time += in.cycles
			r.sample(t)
		case cField:
			if r.key(t) > limit {
				if in.ahead && r.readAhead(t, &in.decInstr) {
					continue
				}
				t.pc = pc - 1
				return nil
			}
			if err := r.execField(t, &in.decInstr); err != nil {
				return err
			}
		case cMem:
			if r.key(t) > limit {
				t.pc = pc - 1
				return nil
			}
			if err := r.execMem(t, &in.decInstr); err != nil {
				return err
			}
		case cLock:
			if r.key(t) > limit {
				t.pc = pc - 1
				return nil
			}
			if err := r.execLock(t, &in.decInstr); err != nil {
				return err
			}
			if t.parked {
				t.pc = pc
				return nil
			}
		case cUnlock:
			if r.key(t) > limit {
				t.pc = pc - 1
				return nil
			}
			if err := r.execUnlock(t, &in.decInstr); err != nil {
				return err
			}
			if len(r.woken) > 0 {
				t.pc = pc
				return nil
			}
		case cBlock:
			r.prof.IncrBlock(in.block.Global)
			t.curBlock = in.block
		case cJoin:
			r.prof.IncrBlock(in.block.Global)
			t.curBlock = in.block
			t.time += branchCost
			r.sample(t)
		case cLoop:
			r.prof.AddLoop(in.loop.Loop.Global, in.loop.Count)
			t.loopVals = append(t.loopVals, -1)
		case cHeader:
			r.prof.IncrBlock(in.block.Global)
			t.curBlock = in.block
			t.time += branchCost
			r.sample(t)
			top := len(t.loopVals) - 1
			if next := t.loopVals[top] + 1; next < in.loop.Count {
				t.loopVals[top] = next
			} else {
				t.loopVals = t.loopVals[:top]
				pc = int(in.target)
			}
		case cIf:
			r.prof.IncrBlock(in.block.Global)
			t.curBlock = in.block
			t.time += branchCost
			r.sample(t)
			if t.rng.Float64() >= in.prob {
				pc = int(in.target)
			}
		case cJump:
			pc = int(in.target)
		case cCall:
			t.time += callOverhead
			t.rets = append(t.rets, int32(pc))
			pc = int(in.target)
			r.sample(t)
		case cRet:
			if n := len(t.rets) - 1; n >= 0 {
				pc = int(t.rets[n])
				t.rets = t.rets[:n]
				continue
			}
			// One top-level iteration ("script") finished.
			r.completed++
			t.iters--
			if t.iters <= 0 {
				t.done = true
				return nil
			}
			pc = t.entryPC
		}
	}
}
