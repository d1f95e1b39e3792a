package exec

import (
	"fmt"

	"structlayout/internal/ir"
)

// reference is the one-op-per-turn reference interpreter the differential
// tests compare the flat code against. It walks each thread's execution
// tree with an explicit frame stack, one action per step, and yields
// before every shared instruction past its turn: no flat code, no compute
// merging, no read-hit run-ahead. It shares the Runner's decoded program,
// instruction semantics (execField, execLock, ...) and result assembly, so
// what it checks is exactly what the flat code adds: lowering, merging,
// and the yield rule's run-ahead exception.
type reference struct {
	*Runner
	stacks [][]frame // by thread id
}

// frameKind discriminates tree-walker stack frames.
type frameKind uint8

const (
	fSeq frameKind = iota
	fLoop
	fIf
	fBlock
)

// frame is one entry of a thread's explicit stack. Threads must be
// suspendable between any two instructions (the scheduler interleaves by
// virtual time), so the walker cannot use Go recursion.
type frame struct {
	kind frameKind

	nodes []ir.ExecNode // fSeq
	idx   int           // fSeq: next node; fBlock: next instruction

	loop *ir.ExecLoop // fLoop
	iter int64        // fLoop: next iteration index

	ifn *ir.ExecIf // fIf (phase: arm already pushed; next step counts join)

	dins []decInstr // fBlock: the block's decoded instructions
}

// run is Runner.run's scheduler loop over the tree walker.
func (r *reference) run() error {
	q := make(tq, 0, len(r.threads))
	for _, t := range r.threads {
		q.push(r.key(t), t)
	}
	parked := 0
	for len(q) > 0 {
		r.rounds++
		t := q[0].t
		limit := int64(1<<63 - 1)
		if len(q) > 1 {
			limit = q[1].key
			if len(q) > 2 && q[2].key < limit {
				limit = q[2].key
			}
		}
		if err := r.runUntil(t, limit); err != nil {
			return err
		}
		if t.time >= r.timeCap {
			return fmt.Errorf("exec: thread %d virtual time %d exceeds scheduler cap %d", t.id, t.time, r.timeCap)
		}
		switch {
		case t.done:
			q.popRoot()
		case t.parked:
			q.popRoot()
			parked++
		default:
			q.syncRoot(r.key(t))
		}
		for _, w := range r.woken {
			w.parked = false
			parked--
			q.push(r.key(w), w)
		}
		r.woken = r.woken[:0]
	}
	if parked > 0 {
		return fmt.Errorf("exec: deadlock: %d threads still parked", parked)
	}
	return nil
}

// runUntil steps one thread until it yields, parks, wakes another thread
// or finishes.
func (r *reference) runUntil(t *thread, limit int64) error {
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

func (r *reference) push(t *thread, f frame) { r.stacks[t.id] = append(r.stacks[t.id], f) }

func (r *reference) pushSeq(t *thread, nodes []ir.ExecNode) {
	r.push(t, frame{kind: fSeq, nodes: nodes})
}

func (r *reference) pop(t *thread) { r.stacks[t.id] = r.stacks[t.id][:len(r.stacks[t.id])-1] }

// step advances the thread by one action of the tree walk (typically one
// instruction). It updates profile counts, virtual time, coherence state
// and samples as side effects. It returns true when the thread must yield
// before a shared instruction it no longer has the right to execute.
func (r *reference) step(t *thread, limit int64) (bool, error) {
	stack := r.stacks[t.id]
	if len(stack) == 0 {
		// One top-level iteration ("script") finished.
		r.completed++
		t.iters--
		if t.iters <= 0 {
			t.done = true
			return false, nil
		}
		r.pushSeq(t, t.entry.Tree)
		return false, nil
	}
	f := &stack[len(stack)-1]
	switch f.kind {
	case fSeq:
		if f.idx >= len(f.nodes) {
			r.pop(t)
			return false, nil
		}
		n := f.nodes[f.idx]
		f.idx++
		switch n := n.(type) {
		case *ir.ExecBlock:
			r.prof.IncrBlock(n.Block.Global)
			t.curBlock = n.Block
			if len(n.Block.Instrs) == 0 {
				t.time += branchCost
				r.sample(t)
			} else {
				r.push(t, frame{kind: fBlock, dins: r.dec[n.Block.Global]})
			}
		case *ir.ExecLoop:
			r.prof.AddLoop(n.Loop.Global, n.Count)
			r.push(t, frame{kind: fLoop, loop: n})
			t.loopVals = append(t.loopVals, 0)
		case *ir.ExecIf:
			r.prof.IncrBlock(n.Cond.Global)
			t.curBlock = n.Cond
			t.time += branchCost
			r.sample(t)
			arm := n.Then
			if t.rng.Float64() >= n.Prob {
				arm = n.Else
			}
			r.push(t, frame{kind: fIf, ifn: n})
			r.pushSeq(t, arm)
		default:
			return false, fmt.Errorf("exec: unknown node %T", n)
		}
	case fLoop:
		// Each visit is one header test.
		r.prof.IncrBlock(f.loop.Loop.Header.Global)
		t.curBlock = f.loop.Loop.Header
		t.time += branchCost
		r.sample(t)
		if f.iter < f.loop.Count {
			t.loopVals[len(t.loopVals)-1] = f.iter
			f.iter++
			r.pushSeq(t, f.loop.Body)
		} else {
			t.loopVals = t.loopVals[:len(t.loopVals)-1]
			r.pop(t)
		}
	case fIf:
		r.prof.IncrBlock(f.ifn.Join.Global)
		t.curBlock = f.ifn.Join
		t.time += branchCost
		r.sample(t)
		r.pop(t)
	case fBlock:
		if f.idx >= len(f.dins) {
			r.pop(t)
			return false, nil
		}
		in := &f.dins[f.idx]
		if r.yieldCheck(t, limit, in) {
			return true, nil
		}
		f.idx++
		return false, r.execInstr(t, in)
	}
	return false, nil
}

// yieldCheck reports whether the walk must yield before executing in: its
// pre-op key (time, id) is no longer the minimum AND the op is shared.
func (r *reference) yieldCheck(t *thread, limit int64, in *decInstr) bool {
	if r.key(t) <= limit {
		return false
	}
	switch in.op {
	case ir.OpField, ir.OpMem, ir.OpLock, ir.OpUnlock:
		return true
	}
	return false
}

// execInstr runs one decoded instruction, charging latency and recording
// stats.
func (r *reference) execInstr(t *thread, in *decInstr) error {
	switch in.op {
	case ir.OpCompute:
		t.time += in.cycles
		r.sample(t)
	case ir.OpCall:
		t.time += callOverhead
		r.pushSeq(t, in.callee.Tree)
		r.sample(t)
	case ir.OpField:
		return r.execField(t, in)
	case ir.OpMem:
		return r.execMem(t, in)
	case ir.OpLock:
		return r.execLock(t, in)
	case ir.OpUnlock:
		return r.execUnlock(t, in)
	case ir.OpSpawn, ir.OpJoin, ir.OpSend, ir.OpRecv:
		// Static-only markers (see decode): no time, no traffic.
	default:
		return fmt.Errorf("exec: unknown opcode %d", in.op)
	}
	return nil
}
