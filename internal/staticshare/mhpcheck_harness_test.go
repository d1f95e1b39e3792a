// The MHP soundness harness: it enumerates, by explicit-state search,
// every schedule of a DSL program's task system — root threads, spawned
// tasks, join and rendezvous blocking, concrete lock contention — and
// asserts that every pair of blocks observed simultaneously enabled is one
// the static analysis admits as may-happen-in-parallel (and, stronger, one
// the happens-before graph does not claim ordered). The static relation
// over-approximates; any reachable counterexample is a soundness bug.
//
// The search is bounded, not a proof: iteration counts clamp to
// MaxIters, the visited-state set caps at MaxStates (the report then
// says Truncated and the assertion covers the explored prefix), and
// schedules the one-task-per-spawn model cannot represent (a respawn
// while the previous instance still runs) block instead of forking a
// second instance — exactly the configurations the analysis degrades
// on. Within those bounds the enumeration is exhaustive: every
// interleaving of instruction-granular steps is visited once.
package staticshare_test

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/staticshare"
)

// mhpOptions bounds the enumeration.
type mhpOptions struct {
	// MaxStates caps the visited-state set; 0 means 1<<17. Exceeding it
	// truncates the search instead of failing.
	MaxStates int
	// MaxIters clamps root-thread iteration counts and loop trip
	// counts; 0 means 2. Clamping preserves the >1 distinction the
	// analysis keys on while keeping the state space finite.
	MaxIters int64
}

func (o mhpOptions) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 1 << 17
}

func (o mhpOptions) maxIters() int64 {
	if o.MaxIters > 0 {
		return o.MaxIters
	}
	return 2
}

// mhpViolation is one simultaneously-enabled block pair the static
// relation wrongly proves exclusive or ordered.
type mhpViolation struct {
	T1, T2 int // task indices (into Result.Threads)
	B1, B2 ir.BlockID
	// Kind says which claim broke: "exclusive" (MayHappenInParallel
	// returned false) or "hb-ordered" (HBOrdered claimed the pair).
	Kind string
}

// mhpReport is the enumeration outcome.
type mhpReport struct {
	// States counts distinct visited states; Truncated is set when the
	// search hit MaxStates before exhausting the space.
	States    int
	Truncated bool
	// Pairs counts distinct co-enabled (block, block, task, task)
	// witnesses observed.
	Pairs int
	// Violations lists every broken claim, deterministically ordered.
	Violations []mhpViolation
}

// Ok reports whether every observed pair was admitted by the static
// relation.
func (r *mhpReport) Ok() bool { return len(r.Violations) == 0 }

// mhpCheck analyzes the file statically, enumerates its schedules, and
// cross-asserts the two. The returned error covers analysis failures
// only; soundness breaks land in mhpReport.Violations.
func mhpCheck(f *irtext.File, opt mhpOptions) (*mhpReport, error) {
	res, err := staticshare.Analyze(f.Prog, staticshare.FileConfig(f))
	if err != nil {
		return nil, err
	}
	return compile(res, len(f.Threads), opt).run(), nil
}

// --- compiled program ---

const (
	kInstr = iota
	kIf
	kLoop
)

// cstep is one unit of the compiled program: an instruction-granular
// step carrying its block (kInstr), a nondeterministic branch (kIf), or
// a counted loop (kLoop). Passive instruction runs collapse into one
// step per block segment; blocks without instructions compile away.
type cstep struct {
	kind  int
	block ir.BlockID
	op    ir.Opcode // OpCompute stands in for a collapsed passive run
	// access marks steps carrying field traffic (OpField runs, lock and
	// unlock operations). Lock-based exclusion claims quantify over
	// field instructions only, so only access-bearing positions
	// participate in the "exclusive" assertion.
	access bool
	// OpLock/OpUnlock:
	lockStruct string
	lockField  int
	lockInst   ir.InstExpr
	// OpCall and OpSpawn:
	callee string
	handle string // OpSpawn, OpJoin
	ch     string // OpSend, OpRecv
	// kLoop / kIf:
	count     int64
	body, alt int // step-list IDs; -1 when absent
}

type simulator struct {
	res   *staticshare.Result
	roots int
	opt   mhpOptions
	lists [][]cstep
	entry map[string]int // proc name -> step-list ID
}

// compile builds the enumeration over an analysis result. roots is the
// number of declared threads (the leading entries of res.Threads; the rest
// are spawned tasks).
func compile(res *staticshare.Result, roots int, opt mhpOptions) *simulator {
	s := &simulator{res: res, roots: roots, opt: opt, entry: make(map[string]int)}
	for _, pr := range res.Prog.Procs {
		s.entry[pr.Name] = s.compileNodes(pr.Tree)
	}
	return s
}

func (s *simulator) compileNodes(nodes []ir.ExecNode) int {
	var out []cstep
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			if n.Block != nil {
				out = append(out, s.compileBlock(n.Block)...)
			}
		case *ir.ExecLoop:
			body := s.compileNodes(n.Body)
			out = append(out, cstep{kind: kLoop, count: n.Count, body: body, alt: -1})
		case *ir.ExecIf:
			then := s.compileNodes(n.Then)
			els := s.compileNodes(n.Else)
			out = append(out, cstep{kind: kIf, body: then, alt: els})
		}
	}
	id := len(s.lists)
	s.lists = append(s.lists, out)
	return id
}

// compileBlock splits a block's instructions into steps: one per
// semantic operation (locks, calls, sync), passive runs collapsed into
// a single step so the block still registers as "current".
func (s *simulator) compileBlock(b *ir.BasicBlock) []cstep {
	var out []cstep
	passive, passiveAccess := false, false
	flush := func() {
		if passive {
			out = append(out, cstep{kind: kInstr, block: b.Global, op: ir.OpCompute, access: passiveAccess, body: -1, alt: -1})
			passive, passiveAccess = false, false
		}
	}
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpLock, ir.OpUnlock:
			flush()
			st := ""
			if in.Struct != nil {
				st = in.Struct.Name
			}
			out = append(out, cstep{kind: kInstr, block: b.Global, op: in.Op, access: true,
				lockStruct: st, lockField: in.Field, lockInst: in.Inst, body: -1, alt: -1})
		case ir.OpCall:
			flush()
			out = append(out, cstep{kind: kInstr, block: b.Global, op: in.Op, callee: in.Callee, body: -1, alt: -1})
		case ir.OpSpawn:
			flush()
			out = append(out, cstep{kind: kInstr, block: b.Global, op: in.Op, callee: in.Callee, handle: in.Handle, body: -1, alt: -1})
		case ir.OpJoin:
			flush()
			out = append(out, cstep{kind: kInstr, block: b.Global, op: in.Op, handle: in.Handle, body: -1, alt: -1})
		case ir.OpSend, ir.OpRecv:
			flush()
			out = append(out, cstep{kind: kInstr, block: b.Global, op: in.Op, ch: in.Chan, body: -1, alt: -1})
		default:
			passive = true
			if in.Op == ir.OpField {
				passiveAccess = true
			}
		}
	}
	flush()
	return out
}

// --- dynamic state ---

type frame struct {
	list int
	idx  int
	rem  int64 // loop iterations remaining (1 for plain frames)
}

const (
	statusIdle = iota // spawned task not yet started
	statusRun
	statusDone
)

type taskState struct {
	status int
	stack  []frame
}

type simState struct {
	tasks []taskState
	locks map[string]int // resolved lock instance -> holding task
}

func (st *simState) clone() *simState {
	out := &simState{tasks: make([]taskState, len(st.tasks)), locks: make(map[string]int, len(st.locks))}
	for i, t := range st.tasks {
		out.tasks[i] = taskState{status: t.status, stack: append([]frame(nil), t.stack...)}
	}
	for k, v := range st.locks {
		out.locks[k] = v
	}
	return out
}

func (st *simState) encode() string {
	var b strings.Builder
	for _, t := range st.tasks {
		fmt.Fprintf(&b, "%d:", t.status)
		for _, f := range t.stack {
			fmt.Fprintf(&b, "%d.%d.%d,", f.list, f.idx, f.rem)
		}
		b.WriteByte('|')
	}
	keys := make([]string, 0, len(st.locks))
	for k := range st.locks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, st.locks[k])
	}
	return b.String()
}

// cur returns the task's current step, nil when it cannot be at one
// (finished, idle, or empty stack).
func (s *simulator) cur(st *simState, t int) *cstep {
	ts := &st.tasks[t]
	if ts.status != statusRun || len(ts.stack) == 0 {
		return nil
	}
	f := ts.stack[len(ts.stack)-1]
	return &s.lists[f.list][f.idx]
}

// normalize resolves a task's position to the next kInstr or kIf step:
// unwinds exhausted frames (decrementing loop counters), expands loops,
// and marks the task done when its stack empties.
func (s *simulator) normalize(st *simState, t int) {
	ts := &st.tasks[t]
	for ts.status == statusRun {
		if len(ts.stack) == 0 {
			ts.status = statusDone
			return
		}
		f := &ts.stack[len(ts.stack)-1]
		if f.idx >= len(s.lists[f.list]) {
			if f.rem > 1 {
				f.rem--
				f.idx = 0
				continue
			}
			ts.stack = ts.stack[:len(ts.stack)-1]
			continue
		}
		step := &s.lists[f.list][f.idx]
		if step.kind == kLoop {
			count := step.count
			if count > s.opt.maxIters() {
				count = s.opt.maxIters()
			}
			f.idx++ // resume past the loop when the body frame pops
			if count > 0 {
				ts.stack = append(ts.stack, frame{list: step.body, idx: 0, rem: count})
			}
			continue
		}
		return // kInstr or kIf: a schedulable position
	}
}

// lockKey resolves a lock operand for a task; ok is false when the
// instance is unknown or a sweep (untracked — the static analysis never
// claims exclusion from those either).
func (s *simulator) lockKey(t int, c *cstep) (string, bool) {
	if c.lockStruct == "" {
		return "", false
	}
	idx, known, sweep := s.res.ResolveInst(t, c.lockStruct, c.lockInst)
	if !known || sweep {
		return "", false
	}
	return fmt.Sprintf("%s.%d@%d", c.lockStruct, c.lockField, idx), true
}

// enabled reports whether task t can take a step in st.
func (s *simulator) enabled(st *simState, t int) bool {
	c := s.cur(st, t)
	if c == nil {
		return false
	}
	if c.kind == kIf {
		return true
	}
	switch c.op {
	case ir.OpLock:
		k, ok := s.lockKey(t, c)
		if !ok {
			return true
		}
		_, held := st.locks[k]
		return !held
	case ir.OpSpawn:
		child, ok := s.res.SpawnedTask(t, c.handle)
		return ok && st.tasks[child].status != statusRun
	case ir.OpJoin:
		child, ok := s.res.SpawnedTask(t, c.handle)
		return ok && st.tasks[child].status == statusDone
	case ir.OpSend:
		return s.rendezvousPeers(st, t, c.ch, ir.OpRecv) != nil
	case ir.OpRecv:
		return s.rendezvousPeers(st, t, c.ch, ir.OpSend) != nil
	}
	return true
}

// rendezvousPeers returns the tasks currently parked at the matching
// endpoint of the channel.
func (s *simulator) rendezvousPeers(st *simState, self int, ch string, want ir.Opcode) []int {
	var peers []int
	for t := range st.tasks {
		if t == self {
			continue
		}
		c := s.cur(st, t)
		if c != nil && c.kind == kInstr && c.op == want && c.ch == ch {
			peers = append(peers, t)
		}
	}
	return peers
}

// advance moves task t past its current step and renormalizes.
func (s *simulator) advance(st *simState, t int) {
	ts := &st.tasks[t]
	ts.stack[len(ts.stack)-1].idx++
	s.normalize(st, t)
}

// successors generates every state reachable from st in one step of
// task t (the caller guarantees enabled). Rendezvous transitions are
// generated from the send side only; the recv side yields nothing (the
// joint step is the same transition).
func (s *simulator) successors(st *simState, t int) []*simState {
	c := s.cur(st, t)
	if c.kind == kIf {
		var out []*simState
		for _, branch := range []int{c.body, c.alt} {
			n := st.clone()
			ts := &n.tasks[t]
			ts.stack[len(ts.stack)-1].idx++
			if branch >= 0 && len(s.lists[branch]) > 0 {
				ts.stack = append(ts.stack, frame{list: branch, idx: 0, rem: 1})
			}
			s.normalize(n, t)
			out = append(out, n)
		}
		return out
	}
	switch c.op {
	case ir.OpLock:
		n := st.clone()
		if k, ok := s.lockKey(t, c); ok {
			n.locks[k] = t
		}
		s.advance(n, t)
		return []*simState{n}
	case ir.OpUnlock:
		n := st.clone()
		if k, ok := s.lockKey(t, c); ok {
			if holder, held := n.locks[k]; held && holder == t {
				delete(n.locks, k)
			}
		}
		s.advance(n, t)
		return []*simState{n}
	case ir.OpCall:
		n := st.clone()
		ts := &n.tasks[t]
		ts.stack[len(ts.stack)-1].idx++
		if id, ok := s.entry[c.callee]; ok && len(s.lists[id]) > 0 {
			ts.stack = append(ts.stack, frame{list: id, idx: 0, rem: 1})
		}
		s.normalize(n, t)
		return []*simState{n}
	case ir.OpSpawn:
		child, _ := s.res.SpawnedTask(t, c.handle)
		n := st.clone()
		id := s.entry[s.res.Threads[child].Proc]
		n.tasks[child] = taskState{status: statusRun, stack: []frame{{list: id, idx: 0, rem: 1}}}
		s.normalize(n, child)
		s.advance(n, t)
		return []*simState{n}
	case ir.OpSend:
		var out []*simState
		for _, peer := range s.rendezvousPeers(st, t, c.ch, ir.OpRecv) {
			n := st.clone()
			s.advance(n, t)
			s.advance(n, peer)
			out = append(out, n)
		}
		return out
	case ir.OpRecv:
		return nil // the matching send generates the joint transition
	default: // passive, join
		n := st.clone()
		s.advance(n, t)
		return []*simState{n}
	}
}

// --- enumeration ---

type witness struct {
	t1, t2 int
	b1, b2 ir.BlockID
	// access: both positions carried field traffic, so the pair is in
	// scope for lock-based exclusion claims.
	access bool
}

func (s *simulator) run() *mhpReport {
	rep := &mhpReport{}
	init := &simState{tasks: make([]taskState, len(s.res.Threads)), locks: map[string]int{}}
	for i := range s.res.Threads {
		if i < s.roots {
			iters := s.res.Threads[i].Iters
			if iters <= 0 {
				iters = 1
			}
			if iters > s.opt.maxIters() {
				iters = s.opt.maxIters()
			}
			id := s.entry[s.res.Threads[i].Proc]
			init.tasks[i] = taskState{status: statusRun, stack: []frame{{list: id, idx: 0, rem: iters}}}
			s.normalize(init, i)
		} else {
			init.tasks[i] = taskState{status: statusIdle}
		}
	}

	visited := make(map[string]bool)
	seenPairs := make(map[witness]bool)
	queue := []*simState{init}
	visited[init.encode()] = true
	for len(queue) > 0 {
		st := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		rep.States++

		// Record every co-enabled block pair.
		var en []int
		for t := range st.tasks {
			if s.enabled(st, t) {
				en = append(en, t)
			}
		}
		for i := 0; i < len(en); i++ {
			for j := i + 1; j < len(en); j++ {
				t1, t2 := en[i], en[j]
				c1, c2 := s.cur(st, t1), s.cur(st, t2)
				if c1.kind != kInstr || c2.kind != kInstr {
					continue // branch points carry no block
				}
				w := witness{t1, t2, c1.block, c2.block, c1.access && c2.access}
				seenPairs[w] = true
			}
		}

		if len(visited) >= s.opt.maxStates() {
			rep.Truncated = true
			break
		}
		for _, t := range en {
			for _, n := range s.successors(st, t) {
				key := n.encode()
				if !visited[key] {
					visited[key] = true
					queue = append(queue, n)
				}
			}
		}
	}

	rep.Pairs = len(seenPairs)
	ws := make([]witness, 0, len(seenPairs))
	for w := range seenPairs {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.b1 != b.b1 {
			return a.b1 < b.b1
		}
		if a.b2 != b.b2 {
			return a.b2 < b.b2
		}
		if a.t1 != b.t1 {
			return a.t1 < b.t1
		}
		if a.t2 != b.t2 {
			return a.t2 < b.t2
		}
		return !a.access && b.access
	})
	emitted := make(map[mhpViolation]bool)
	for _, w := range ws {
		// Lock-based exclusion quantifies over field instructions, so
		// only access-bearing witnesses are in scope for the Exclusive
		// claim; the happens-before claim covers every position.
		if w.access && !s.res.MayHappenInParallel(w.b1, w.b2) {
			v := mhpViolation{T1: w.t1, T2: w.t2, B1: w.b1, B2: w.b2, Kind: "exclusive"}
			if !emitted[v] {
				emitted[v] = true
				rep.Violations = append(rep.Violations, v)
			}
		}
		if s.res.HBOrdered(w.t1, w.b1, w.t2, w.b2) {
			v := mhpViolation{T1: w.t1, T2: w.t2, B1: w.b1, B2: w.b2, Kind: "hb-ordered"}
			if !emitted[v] {
				emitted[v] = true
				rep.Violations = append(rep.Violations, v)
			}
		}
	}
	return rep
}
