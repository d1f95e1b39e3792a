// hb.go is the happens-before layer under the MHP relation. The DSL's
// structured fork/join skeleton (spawn/join statements, rendezvous
// send/recv) makes the task graph a statically known series-parallel
// DAG: every task's entry procedure partitions at its top-level sync
// statements into segments, segments become nodes of a happens-before
// graph, and fork/join/channel edges order them. Two blocks are then
// provably ordered — cannot run in parallel — when every combination of
// the segments they can execute in is reachable one way or the other in
// that graph. The refinement is deliberately all-or-nothing per
// program: any configuration the one-task-per-spawn model cannot
// represent soundly (an unjoined spawn under an iterated parent)
// degrades to the flat relation rather than guessing.
package staticshare

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
)

// maxTasks bounds the fork tree: each spawn statement in a reached
// entry procedure materializes one task, so a deep spawn chain can grow
// geometrically. Past the cap the analysis errors rather than silently
// truncating the thread set (a truncated set would be unsound).
const maxTasks = 512

// hbTask is the per-task fork/join bookkeeping, parallel to
// Result.Threads. Root tasks (declared threads) have parent -1.
type hbTask struct {
	parent   int
	handle   string
	spawnSeg int // segment of the parent's entry proc holding the spawn
	joinSeg  int // segment holding the join, -1 when never joined
	// execBound is how many times the task's body can execute end to
	// end: Iters for roots, the parent's bound for spawned children.
	execBound int64
}

// hbState is the happens-before graph over (task, segment) nodes.
type hbState struct {
	tasks []hbTask
	// segCount maps a task-entry procedure to its segment count
	// (top-level sync statements + 1); procs absent have one segment.
	segCount map[string]int
	// blockSeg maps blocks of multi-segment entry procs to their
	// top-level segment.
	blockSeg map[ir.BlockID]int
	// calleeSegs maps entry proc → callee proc → sorted set of entry
	// segments whose call sites (transitively) reach the callee. Only
	// entry procs with more than one segment have entries.
	calleeSegs map[string]map[string][]int
	// offset and reach implement node reachability: node(t,s) =
	// offset[t]+s, reach[from] is the set of nodes reachable from it.
	offset []int
	nodes  int
	reach  [][]bool
	// degraded drops every ordering fact while keeping task discovery:
	// set when an iterated parent leaves a spawn unjoined (overlapping
	// same-task instances the model cannot see).
	degraded bool
	// chanDropped names channels whose edges were dropped (non-unique
	// endpoints, same-task pairing, iterated endpoint, or a cycle),
	// for diagnostics and tests.
	chanDropped []string
}

// syncInstrsOf returns the instructions of a procedure's top-level sync
// blocks in order: sync instruction k ends segment k.
func syncInstrsOf(pr *ir.Procedure) []ir.Instr {
	var out []ir.Instr
	for _, n := range pr.Tree {
		if n, ok := n.(*ir.ExecBlock); ok && n.Block != nil && isSyncBlock(n.Block) {
			out = append(out, n.Block.Instrs[0])
		}
	}
	return out
}

// discoverTasks extends the declared threads with every task reachable
// through spawn statements (breadth-first, declaration order, so task
// indices are deterministic) and records the fork/join skeleton. It
// must run before computeReach: spawned procedures are reached by their
// tasks. Returns an error only when the task tree exceeds maxTasks.
func (r *Result) discoverTasks() error {
	anySync := false
	for _, pr := range r.Prog.Procs {
		if len(syncInstrsOf(pr)) > 0 {
			anySync = true
			break
		}
	}
	if !anySync {
		return nil
	}
	h := &hbState{
		segCount:   make(map[string]int),
		blockSeg:   make(map[ir.BlockID]int),
		calleeSegs: make(map[string]map[string][]int),
	}
	for i := range r.Threads {
		bound := r.Threads[i].Iters
		if bound <= 0 {
			bound = 1
		}
		h.tasks = append(h.tasks, hbTask{parent: -1, joinSeg: -1, execBound: bound})
	}
	// Breadth-first over spawn statements; children append in parent
	// order, then statement order.
	for ti := 0; ti < len(h.tasks); ti++ {
		pr := r.Prog.Proc(r.Threads[ti].Proc)
		if pr == nil {
			continue
		}
		syncs := syncInstrsOf(pr)
		joinOrd := make(map[string]int) // handle -> sync ordinal of its join
		for ord, in := range syncs {
			if in.Op == ir.OpJoin {
				joinOrd[in.Handle] = ord
			}
		}
		for ord, sp := range syncs {
			if sp.Op != ir.OpSpawn {
				continue
			}
			if len(h.tasks) >= maxTasks {
				return fmt.Errorf("staticshare: spawn tree exceeds %d tasks", maxTasks)
			}
			joinSeg := -1
			if j, joined := joinOrd[sp.Handle]; joined {
				joinSeg = j
			}
			child := hbTask{
				parent:    ti,
				handle:    sp.Handle,
				spawnSeg:  ord,
				joinSeg:   joinSeg,
				execBound: h.tasks[ti].execBound,
			}
			if h.tasks[ti].execBound > 1 && joinSeg < 0 {
				// An unjoined child of an iterated parent has
				// overlapping instances the one-task model cannot
				// represent: keep the task (its accesses are real) but
				// drop every ordering fact.
				h.degraded = true
			}
			h.tasks = append(h.tasks, child)
			r.Threads = append(r.Threads, Thread{
				CPU:    sp.SpawnCPU,
				Proc:   sp.Callee,
				Params: append([]int(nil), sp.SpawnParams...),
				Iters:  h.tasks[ti].execBound,
			})
		}
	}
	r.hb = h
	return nil
}

// buildHB finishes the happens-before graph once the program's blocks
// exist: segment maps, fork/join and channel edges, reachability.
func (r *Result) buildHB() {
	h := r.hb
	if h == nil {
		return
	}
	// Segment structure per entry procedure.
	entryProcs := make(map[string]bool)
	for i := range h.tasks {
		entryProcs[r.Threads[i].Proc] = true
	}
	for name := range entryProcs {
		pr := r.Prog.Proc(name)
		if pr == nil {
			continue
		}
		n := len(syncInstrsOf(pr)) + 1
		h.segCount[name] = n
		if n > 1 {
			h.assignBlockSegs(pr)
		}
	}
	h.propagateCalleeSegs(r.Prog)

	// Node numbering.
	h.offset = make([]int, len(h.tasks))
	for i := range h.tasks {
		h.offset[i] = h.nodes
		h.nodes += h.segsOfTask(r, i)
	}
	succ := make([][]int, h.nodes)
	addEdge := func(from, to int) { succ[from] = append(succ[from], to) }
	node := func(t, s int) int { return h.offset[t] + s }
	for t := range h.tasks {
		n := h.segsOfTask(r, t)
		for s := 0; s+1 < n; s++ {
			addEdge(node(t, s), node(t, s+1))
		}
	}
	for c := range h.tasks {
		ct := h.tasks[c]
		if ct.parent < 0 {
			continue
		}
		addEdge(node(ct.parent, ct.spawnSeg), node(c, 0))
		if ct.joinSeg >= 0 {
			addEdge(node(c, h.segsOfTask(r, c)-1), node(ct.parent, ct.joinSeg+1))
		}
	}
	chanEdges := h.channelEdges(r)
	for _, e := range chanEdges {
		addEdge(e[0], e[1])
	}
	if len(chanEdges) > 0 && hasCycle(succ) {
		// The fork/join tree alone is acyclic; a cycle can only come
		// from channel edges (a deadlocking rendezvous pattern). Drop
		// them all: the refinement stays a DAG.
		succ = make([][]int, h.nodes)
		for t := range h.tasks {
			n := h.segsOfTask(r, t)
			for s := 0; s+1 < n; s++ {
				addEdge(node(t, s), node(t, s+1))
			}
		}
		for c := range h.tasks {
			ct := h.tasks[c]
			if ct.parent < 0 {
				continue
			}
			addEdge(node(ct.parent, ct.spawnSeg), node(c, 0))
			if ct.joinSeg >= 0 {
				addEdge(node(c, h.segsOfTask(r, c)-1), node(ct.parent, ct.joinSeg+1))
			}
		}
		h.chanDropped = append(h.chanDropped, "cycle")
	}

	// Transitive reachability (strict: a node does not reach itself).
	h.reach = make([][]bool, h.nodes)
	for from := 0; from < h.nodes; from++ {
		seen := make([]bool, h.nodes)
		stack := append([]int(nil), succ[from]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			stack = append(stack, succ[v]...)
		}
		h.reach[from] = seen
	}
}

// hasCycle reports whether the edge lists contain a directed cycle.
func hasCycle(succ [][]int) bool {
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(succ))
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = grey
		for _, w := range succ[v] {
			switch color[w] {
			case grey:
				return true
			case white:
				if visit(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := range succ {
		if color[v] == white && visit(v) {
			return true
		}
	}
	return false
}

// segsOfTask returns the number of segments of task t's entry proc.
func (h *hbState) segsOfTask(r *Result, t int) int {
	if n := h.segCount[r.Threads[t].Proc]; n > 0 {
		return n
	}
	return 1
}

// assignBlockSegs walks the execution tree of a multi-segment
// entry proc, assigning each top-level block its segment: the counter
// bumps after every sync block, nested subtrees (loops, branches,
// which cannot contain sync) take the current segment, and the exit
// block lands in the last segment.
func (h *hbState) assignBlockSegs(pr *ir.Procedure) {
	seg := 0
	var walk func(nodes []ir.ExecNode, topLevel bool)
	walk = func(nodes []ir.ExecNode, topLevel bool) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *ir.ExecBlock:
				if n.Block == nil {
					continue
				}
				h.blockSeg[n.Block.Global] = seg
				if topLevel && isSyncBlock(n.Block) {
					seg++
				}
			case *ir.ExecLoop:
				if n.Loop != nil && n.Loop.Header != nil {
					h.blockSeg[n.Loop.Header.Global] = seg
				}
				walk(n.Body, false)
			case *ir.ExecIf:
				if n.Cond != nil {
					h.blockSeg[n.Cond.Global] = seg
				}
				walk(n.Then, false)
				walk(n.Else, false)
				if n.Join != nil {
					h.blockSeg[n.Join.Global] = seg
				}
			}
		}
	}
	walk(pr.Tree, true)
}

// isSyncBlock reports whether the block is a dedicated sync block (one
// spawn/join/send/recv instruction; ir.Builder guarantees the shape).
func isSyncBlock(b *ir.BasicBlock) bool {
	if len(b.Instrs) != 1 {
		return false
	}
	switch b.Instrs[0].Op {
	case ir.OpSpawn, ir.OpJoin, ir.OpSend, ir.OpRecv:
		return true
	}
	return false
}

// propagateCalleeSegs computes, for every multi-segment entry proc, the
// set of its segments each (transitive) callee can execute in: the
// segment of the call block for direct calls, unioned down the call
// order. Callees contain no sync statements, so a proc's set is uniform
// across its own blocks.
func (h *hbState) propagateCalleeSegs(p *ir.Program) {
	for entry, n := range h.segCount {
		if n <= 1 {
			continue
		}
		sets := make(map[string]map[int]bool)
		add := func(proc string, segs map[int]bool) {
			dst := sets[proc]
			if dst == nil {
				dst = make(map[int]bool)
				sets[proc] = dst
			}
			for s := range segs {
				dst[s] = true
			}
		}
		for _, pr := range p.CallOrder() {
			from := sets[pr.Name]
			if pr.Name != entry && from == nil {
				continue // not reachable from this entry
			}
			for _, b := range pr.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall {
						continue
					}
					if pr.Name == entry {
						add(in.Callee, map[int]bool{h.blockSeg[b.Global]: true})
					} else {
						add(in.Callee, from)
					}
				}
			}
		}
		out := make(map[string][]int, len(sets))
		for proc, set := range sets {
			segs := make([]int, 0, len(set))
			for s := range set {
				segs = append(segs, s)
			}
			sort.Ints(segs)
			out[proc] = segs
		}
		h.calleeSegs[entry] = out
	}
}

// channelEdges derives rendezvous edges: for each channel with exactly
// one send instance and one recv instance, on distinct tasks, both
// executing at most once, the receiver's continuation is ordered after
// the sender's prefix and vice versa. Anything else drops the channel
// (recorded in chanDropped).
func (h *hbState) channelEdges(r *Result) [][2]int {
	type endpoint struct {
		task int
		ord  int
		n    int // occurrence count across all tasks
	}
	sends := make(map[string]*endpoint)
	recvs := make(map[string]*endpoint)
	record := func(m map[string]*endpoint, ch string, task, ord int) {
		e := m[ch]
		if e == nil {
			m[ch] = &endpoint{task: task, ord: ord, n: 1}
			return
		}
		e.n++
	}
	for ti := range h.tasks {
		pr := r.Prog.Proc(r.Threads[ti].Proc)
		if pr == nil {
			continue
		}
		for ord, in := range syncInstrsOf(pr) {
			switch in.Op {
			case ir.OpSend:
				record(sends, in.Chan, ti, ord)
			case ir.OpRecv:
				record(recvs, in.Chan, ti, ord)
			}
		}
	}
	chans := make([]string, 0, len(sends))
	for ch := range sends {
		chans = append(chans, ch)
	}
	for ch := range recvs {
		if _, ok := sends[ch]; !ok {
			chans = append(chans, ch)
		}
	}
	sort.Strings(chans)
	var edges [][2]int
	for _, ch := range chans {
		s, rv := sends[ch], recvs[ch]
		if s == nil || rv == nil || s.n != 1 || rv.n != 1 || s.task == rv.task ||
			h.tasks[s.task].execBound != 1 || h.tasks[rv.task].execBound != 1 {
			h.chanDropped = append(h.chanDropped, ch)
			continue
		}
		// Sender prefix (segs ≤ a) before receiver continuation (segs
		// > b), and receiver prefix before sender continuation: the
		// rendezvous completes both sides together.
		edges = append(edges,
			[2]int{h.offset[s.task] + s.ord, h.offset[rv.task] + rv.ord + 1},
			[2]int{h.offset[rv.task] + rv.ord, h.offset[s.task] + s.ord + 1})
	}
	return edges
}

// segsOf returns the segments of the entry proc of task t in which
// block b can execute: the block's own segment when b belongs to the
// entry proc, the propagated call-site set when it belongs to a callee,
// and segment 0 otherwise.
func (h *hbState) segsOf(r *Result, t int, b ir.BlockID) []int {
	blk := r.blockAt(b)
	if blk == nil {
		return []int{0}
	}
	entry := r.Threads[t].Proc
	if h.segCount[entry] <= 1 {
		return []int{0}
	}
	if blk.Proc.Name == entry {
		return []int{h.blockSeg[b]}
	}
	if segs := h.calleeSegs[entry][blk.Proc.Name]; len(segs) > 0 {
		return segs
	}
	return []int{0}
}

// ordered reports whether node (t1,s1) happens strictly before (t2,s2).
func (h *hbState) orderedNode(t1, s1, t2, s2 int) bool {
	return h.reach[h.offset[t1]+s1][h.offset[t2]+s2]
}

// hbExcluded reports whether blocks b1 on task t1 and b2 on task t2 are
// provably ordered: every combination of the segments they can execute
// in is happens-before reachable in one direction or the other.
func (r *Result) hbExcluded(t1 int, b1 ir.BlockID, t2 int, b2 ir.BlockID) bool {
	h := r.hb
	if h == nil || h.degraded || t1 == t2 {
		return false
	}
	for _, s1 := range h.segsOf(r, t1, b1) {
		for _, s2 := range h.segsOf(r, t2, b2) {
			if !h.orderedNode(t1, s1, t2, s2) && !h.orderedNode(t2, s2, t1, s1) {
				return false
			}
		}
	}
	return true
}

// HBDegraded reports whether the happens-before refinement was dropped
// (unjoined spawn under an iterated parent).
func (r *Result) HBDegraded() bool { return r.hb != nil && r.hb.degraded }

// segKeyOf canonically encodes, for the access's conflictKey, everything
// the happens-before verdicts of an access depend on beyond its thread
// set: per reaching thread, the segments its block can execute in.
// Programs without sync statements (or degraded ones) encode as "", as
// hbExcluded orders nothing in them.
func (r *Result) segKeyOf(threads []int, b ir.BlockID) string {
	h := r.hb
	if h == nil || h.degraded {
		return ""
	}
	var sb strings.Builder
	for i, t := range threads {
		if i > 0 {
			sb.WriteByte(';')
		}
		for j, s := range h.segsOf(r, t, b) {
			if j > 0 {
				sb.WriteByte('.')
			}
			fmt.Fprintf(&sb, "%d", s)
		}
	}
	return sb.String()
}
