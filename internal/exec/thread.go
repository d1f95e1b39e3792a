package exec

import (
	"fmt"
	"math/rand"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
)

// frameKind discriminates interpreter stack frames.
type frameKind uint8

const (
	fSeq frameKind = iota
	fLoop
	fIf
	fBlock
)

// frame is one entry of the tree walker's explicit stack (the slow path;
// the fast path runs the flat code). Threads must be suspendable between
// any two instructions (the scheduler interleaves by virtual time), so the
// interpreter cannot use Go recursion.
type frame struct {
	kind frameKind

	nodes []ir.ExecNode // fSeq
	idx   int           // fSeq: next node; fBlock: next instruction

	loop *ir.ExecLoop // fLoop
	iter int64        // fLoop: next iteration index

	ifn *ir.ExecIf // fIf (phase: arm already pushed; next step counts join)

	dins []decInstr // fBlock: the block's pre-decoded instructions
}

// thread is one simulated kernel thread pinned to a CPU.
type thread struct {
	id     int
	cpu    int
	entry  *ir.Procedure
	params []int
	iters  int64
	rng    *rand.Rand

	time     int64
	pc       int     // next flat-code instruction
	entryPC  int     // the entry procedure's first instruction
	rets     []int32 // flat-code return pcs, innermost call last
	stack    []frame // the tree walker's frames (slow path)
	loopVals []int64 // innermost loop induction values, last = innermost
	cursors  []int64 // per-region streaming cursors, indexed by region
	curBlock *ir.BasicBlock

	done   bool
	parked bool

	// Precomputed instance tables (buildInstTables): a thread's per-CPU
	// and parameter-indexed arena instances are fixed for the whole run,
	// so the access hot path replaces the per-access modulo with a load.
	instPerCPU []int32 // by arena.idx
	instParam  []int32 // by arena.idx*Runner.nparams + param index
}

// buildInstTables fills every thread's instance tables. Called once at Run
// start, after arenas and threads are final.
func (r *Runner) buildInstTables() {
	for _, t := range r.threads {
		if len(t.params) > r.nparams {
			r.nparams = len(t.params)
		}
	}
	for _, t := range r.threads {
		t.instPerCPU = make([]int32, len(r.arenaList))
		t.instParam = make([]int32, len(r.arenaList)*r.nparams)
		for _, a := range r.arenaList {
			t.instPerCPU[a.idx] = int32(t.cpu % a.count)
			for p, v := range t.params {
				t.instParam[a.idx*r.nparams+p] = int32(v % a.count)
			}
		}
	}
}

// instIndex resolves a decoded instruction's instance: shared instances
// were resolved at decode, per-CPU and parameter instances come from the
// thread's tables, and loop-variable instances (which change every
// iteration) read the innermost induction value.
func (r *Runner) instIndex(t *thread, a *arena, in *decInstr) (int, error) {
	switch in.inst.Kind {
	case ir.InstShared:
		return int(in.instIdx), nil
	case ir.InstPerCPU:
		return int(t.instPerCPU[a.idx]), nil
	case ir.InstParam:
		if in.inst.Index >= len(t.params) {
			return 0, fmt.Errorf("exec: thread %d has no param %d", t.id, in.inst.Index)
		}
		return int(t.instParam[a.idx*r.nparams+in.inst.Index]), nil
	case ir.InstLoopVar:
		if len(t.loopVals) == 0 {
			return 0, fmt.Errorf("exec: loopvar instance outside any loop")
		}
		return int(t.loopVals[len(t.loopVals)-1] % int64(a.count)), nil
	}
	return 0, fmt.Errorf("exec: unknown instance kind %d", in.inst.Kind)
}

func (t *thread) pushSeq(nodes []ir.ExecNode) {
	t.stack = append(t.stack, frame{kind: fSeq, nodes: nodes})
}

// step advances the thread by one action of the tree walker, the slow
// path's reference interpreter (typically one instruction). It updates
// profile counts, virtual time, coherence state and samples as side
// effects. It returns true when the thread must yield before a shared
// instruction it no longer has the right to execute.
func (r *Runner) step(t *thread, limit int64) (bool, error) {
	if len(t.stack) == 0 {
		// One top-level iteration ("script") finished.
		r.completed++
		t.iters--
		if t.iters <= 0 {
			t.done = true
			return false, nil
		}
		t.pushSeq(t.entry.Tree)
		return false, nil
	}
	f := &t.stack[len(t.stack)-1]
	switch f.kind {
	case fSeq:
		if f.idx >= len(f.nodes) {
			t.pop()
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
				t.stack = append(t.stack, frame{kind: fBlock, dins: r.dec[n.Block.Global]})
			}
		case *ir.ExecLoop:
			r.prof.AddLoop(n.Loop.Global, n.Count)
			t.stack = append(t.stack, frame{kind: fLoop, loop: n})
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
			t.stack = append(t.stack, frame{kind: fIf, ifn: n})
			t.pushSeq(arm)
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
			t.pushSeq(f.loop.Body)
		} else {
			t.loopVals = t.loopVals[:len(t.loopVals)-1]
			t.pop()
		}
	case fIf:
		r.prof.IncrBlock(f.ifn.Join.Global)
		t.curBlock = f.ifn.Join
		t.time += branchCost
		r.sample(t)
		t.pop()
	case fBlock:
		if f.idx >= len(f.dins) {
			t.pop()
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

func (t *thread) pop() { t.stack = t.stack[:len(t.stack)-1] }

// sample lets the collector observe the thread's new time.
func (r *Runner) sample(t *thread) {
	if r.collector != nil {
		r.collector.Tick(t.cpu, t.time, t.curBlock)
	}
}

// execInstr runs one pre-decoded instruction for the tree walker,
// charging latency and recording stats.
func (r *Runner) execInstr(t *thread, in *decInstr) error {
	switch in.op {
	case ir.OpCompute:
		t.time += in.cycles
		r.sample(t)
	case ir.OpCall:
		t.time += callOverhead
		t.pushSeq(in.callee.Tree)
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

// execField runs a field access.
func (r *Runner) execField(t *thread, in *decInstr) error {
	a := in.arena
	idx, err := r.instIndex(t, a, in)
	if err != nil {
		return err
	}
	addr := a.base + int64(idx)*a.stride + in.fieldOff
	var res coherence.AccessResult
	r.coh.AccessInto(t.cpu, addr, in.size, in.write, &res)
	t.time += res.Latency
	r.record(a, in.field, &res)
	r.sample(t)
	return nil
}

// execMem runs a region access.
func (r *Runner) execMem(t *thread, in *decInstr) error {
	addr, err := r.memAddr(t, in)
	if err != nil {
		return err
	}
	var res coherence.AccessResult
	r.coh.AccessInto(t.cpu, addr, 8, in.write, &res)
	t.time += res.Latency
	r.sample(t)
	return nil
}

// memAddr resolves a region access address.
func (r *Runner) memAddr(t *thread, in *decInstr) (int64, error) {
	reg := in.region
	base := reg.base
	if reg.perThread {
		base += int64(t.cpu) * reg.stride
	}
	span := reg.size - 8
	if span < 1 {
		span = 1
	}
	var off int64
	switch in.pattern {
	case ir.MemSeq:
		cur := t.cursors[in.regionIdx]
		off = cur % span
		t.cursors[in.regionIdx] = cur + in.stride
	case ir.MemFixed:
		off = in.offset % span
	case ir.MemRand:
		off = t.rng.Int63n(span)
	default:
		return 0, fmt.Errorf("exec: unknown memory pattern %d", in.pattern)
	}
	return base + off, nil
}

// lockFor resolves the lock state and lock-word address for a lock/unlock
// instruction.
func (r *Runner) lockFor(t *thread, in *decInstr) (*lockState, int64, error) {
	a := in.arena
	idx, err := r.instIndex(t, a, in)
	if err != nil {
		return nil, 0, err
	}
	addr := a.base + int64(idx)*a.stride + in.fieldOff
	return &a.locks[idx*len(a.stats)+int(in.field)], addr, nil
}

// execLock acquires a field-resident spinlock: a read-modify-write of the
// lock word. Contended acquisition parks the thread FIFO; the release path
// hands the lock (and the cache line, at cache-to-cache cost) to the first
// waiter. Every acquisition dirties the lock's line, so co-locating a hot
// lock with read-mostly fields produces exactly the false-sharing traffic
// the paper's CycleLoss term is meant to catch.
func (r *Runner) execLock(t *thread, in *decInstr) error {
	ls, addr, err := r.lockFor(t, in)
	if err != nil {
		return err
	}
	if ls.holder == nil {
		ls.holder = t
		res := r.coh.Access(t.cpu, addr, in.size, true)
		t.time += res.Latency
		r.record(in.arena, in.field, &res)
		r.sample(t)
		return nil
	}
	if ls.holder == t {
		return fmt.Errorf("exec: thread %d re-acquires lock %s.%d it already holds", t.id, in.arena.name, in.field)
	}
	ls.waiters = append(ls.waiters, t)
	t.parked = true
	return nil
}

// execUnlock releases the lock and wakes the next waiter. Waking makes the
// caller's runUntil return immediately, so the scheduler recomputes its
// limit with the woken thread back in the queue.
func (r *Runner) execUnlock(t *thread, in *decInstr) error {
	ls, addr, err := r.lockFor(t, in)
	if err != nil {
		return err
	}
	if ls.holder != t {
		return fmt.Errorf("exec: thread %d releases lock %s.%d it does not hold", t.id, in.arena.name, in.field)
	}
	res := r.coh.Access(t.cpu, addr, in.size, true)
	t.time += res.Latency
	r.record(in.arena, in.field, &res)
	r.sample(t)

	if len(ls.waiters) == 0 {
		ls.holder = nil
		return nil
	}
	w := ls.waiters[0]
	ls.waiters = ls.waiters[1:]
	ls.holder = w
	// The waiter resumes after the release, paying the lock-word transfer.
	wake := t.time + lockHandoff
	if w.time > wake {
		wake = w.time
	}
	w.time = wake
	wres := r.coh.Access(w.cpu, addr, in.size, true)
	w.time += wres.Latency
	r.record(in.arena, in.field, &wres)
	if r.collector != nil {
		r.collector.Tick(w.cpu, w.time, w.curBlock)
	}
	r.woken = append(r.woken, w)
	return nil
}

// record attributes an access result to the field's statistics.
func (r *Runner) record(a *arena, field int32, res *coherence.AccessResult) {
	fs := &a.stats[field]
	fs.Accesses++
	fs.StallCycles += res.Latency
	switch res.Miss {
	case coherence.MissNone:
	case coherence.MissUpgrade:
		fs.Upgrades++
	case coherence.MissCoherence:
		fs.Misses++
		fs.CohMisses++
	default:
		fs.Misses++
	}
	if res.FalseSharing {
		fs.FalseSharing++
		// Attribute the causing write to its field too, when it lands in a
		// known arena.
		if ca, fi := r.fieldAtAddr(res.WriterAddr); ca != nil {
			ca.stats[fi].CausedFalseSharing++
		}
	}
}

// fieldAtAddr reverse-maps an address to the arena and field occupying it.
// Arenas never overlap, so scanning the (short) definition-ordered list is
// deterministic.
func (r *Runner) fieldAtAddr(addr int64) (*arena, int) {
	for _, a := range r.arenaList {
		if addr < a.base || addr >= a.base+a.stride*int64(a.count) {
			continue
		}
		off := int((addr - a.base) % a.stride)
		if fi := a.lay.FieldAt(off); fi >= 0 {
			return a, fi
		}
		return nil, -1
	}
	return nil, -1
}
