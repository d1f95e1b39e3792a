// Package locks implements the lock analysis the paper lists as future
// work (§7: "We will seek to improve the affinity information by a variety
// of means, in particular ... by lock analysis"). It computes, for every
// field-touching instruction, the set of spinlocks definitely held when it
// executes, interprocedurally over the acyclic call graph.
//
// Its consumer is the static sharing analysis (internal/staticshare): two
// accesses both performed under the same *shared-instance* lock can never
// execute concurrently, which the layout linter and the static CycleLoss
// prior use to classify a field pair as lock-serialized rather than write-
// shared. (A lock on a per-thread instance excludes nothing: each thread
// holds its own lock.)
package locks

import (
	"fmt"
	"sort"

	"structlayout/internal/ir"
)

// Key identifies a lock: a field of a struct, qualified by the instance
// expression it is acquired through. Two acquisitions with syntactically
// identical shared-instance expressions take the same runtime lock; all
// other kinds are per-thread or data-dependent and excluded from mutual
// exclusion reasoning (but still tracked, e.g. for affinity hints).
type Key struct {
	Struct string
	Field  int
	Inst   ir.InstExpr
}

// String renders the key.
func (k Key) String() string {
	return fmt.Sprintf("%s.#%d@%s", k.Struct, k.Field, k.Inst)
}

// Info is the analysis result.
type Info struct {
	// heldAt maps (block, field-instruction sequence) to the locks
	// definitely held when that instruction executes.
	heldAt map[instrRef][]Key
	// balanced records procedures whose body acquires and releases
	// symmetrically; unbalanced procedures poison their callers.
	balanced map[string]bool
}

type instrRef struct {
	block ir.BlockID
	seq   int
}

// HeldAt returns the locks definitely held when the seq-th field-touching
// instruction of the block executes (nil when unknown or none).
func (in *Info) HeldAt(b ir.BlockID, seq int) []Key { return in.heldAt[instrRef{b, seq}] }

// Balanced reports whether the procedure's lock discipline was analyzable
// (every path releases what it acquires).
func (in *Info) Balanced(proc string) bool { return in.balanced[proc] }

// Analyze runs the analysis. entries names the procedures threads may start
// in; they (and procedures with no call sites) are analyzed with an empty
// entry lock set. Procedures reached only through calls inherit the
// intersection of their call sites' held sets.
//
// Damaged or partial programs (nil tree nodes, instructions without a
// struct, calls to undefined procedures, cyclic call graphs) never panic:
// the analysis either tolerates the damage, treating the affected path as
// unanalyzable, or returns an error the caller can degrade on — the
// pipeline's contract is to fall back to no exclusion facts with a
// lock-analysis-failed finding rather than abort the run.
func Analyze(p *ir.Program, entries []string) (info *Info, err error) {
	defer func() {
		if r := recover(); r != nil {
			info, err = nil, fmt.Errorf("locks: analysis failed on damaged program: %v", r)
		}
	}()
	if p == nil {
		return nil, fmt.Errorf("locks: nil program")
	}
	isEntry := make(map[string]bool, len(entries))
	for _, e := range entries {
		if p.Proc(e) == nil {
			return nil, fmt.Errorf("locks: unknown entry procedure %q", e)
		}
		isEntry[e] = true
	}
	info = &Info{
		heldAt:   make(map[instrRef][]Key),
		balanced: make(map[string]bool),
	}
	a := &analyzer{prog: p, info: info, callCtx: make(map[string][]lockSet)}

	order, err := topoOrder(p)
	if err != nil {
		return nil, err
	}
	for _, pr := range order {
		if pr == nil {
			continue
		}
		entrySet := lockSet{}
		if !isEntry[pr.Name] {
			if ctxs, ok := a.callCtx[pr.Name]; ok && len(ctxs) > 0 {
				entrySet = intersectAll(ctxs)
			}
			// No call sites and not an entry: unreachable; analyze with ∅.
		}
		a.analyzeProc(pr, entrySet)
	}
	return info, nil
}

// lockSet is an ordered set of keys (small; linear ops suffice).
type lockSet []Key

func (s lockSet) has(k Key) bool {
	for _, x := range s {
		if x == k {
			return true
		}
	}
	return false
}

func (s lockSet) add(k Key) lockSet {
	if s.has(k) {
		return s
	}
	out := append(append(lockSet{}, s...), k)
	return out
}

func (s lockSet) remove(k Key) lockSet {
	out := make(lockSet, 0, len(s))
	for _, x := range s {
		if x != k {
			out = append(out, x)
		}
	}
	return out
}

func (s lockSet) clone() lockSet { return append(lockSet{}, s...) }

func (s lockSet) equal(o lockSet) bool {
	if len(s) != len(o) {
		return false
	}
	for _, k := range s {
		if !o.has(k) {
			return false
		}
	}
	return true
}

func intersect(a, b lockSet) lockSet {
	out := lockSet{}
	for _, k := range a {
		if b.has(k) {
			out = append(out, k)
		}
	}
	return out
}

func intersectAll(sets []lockSet) lockSet {
	out := sets[0].clone()
	for _, s := range sets[1:] {
		out = intersect(out, s)
	}
	return out
}

// analyzer carries shared state.
type analyzer struct {
	prog *ir.Program
	info *Info
	// callCtx collects, per callee, the held set at each call site.
	callCtx map[string][]lockSet
}

// analyzeProc walks the execution tree with a running held set.
func (a *analyzer) analyzeProc(pr *ir.Procedure, entry lockSet) {
	exit, ok := a.walk(pr.Tree, entry.clone())
	a.info.balanced[pr.Name] = ok && exit.equal(entry)
}

// walk processes nodes, returning the held set at exit and whether the
// walk stayed analyzable.
func (a *analyzer) walk(nodes []ir.ExecNode, held lockSet) (lockSet, bool) {
	ok := true
	for _, n := range nodes {
		switch n := n.(type) {
		case nil:
			// Damaged tree: the path past this node is unanalyzable.
			ok = false
			held = lockSet{}
		case *ir.ExecBlock:
			if n.Block == nil {
				ok = false
				held = lockSet{}
				continue
			}
			held = a.walkBlock(n.Block, held)
		case *ir.ExecLoop:
			// One symbolic iteration; require balance, otherwise drop to ∅
			// (a loop that accumulates locks would deadlock at runtime).
			after, bodyOK := a.walk(n.Body, held.clone())
			if !bodyOK || !after.equal(held) {
				ok = false
				held = lockSet{}
			}
		case *ir.ExecIf:
			thenOut, thenOK := a.walk(n.Then, held.clone())
			elseOut, elseOK := a.walk(n.Else, held.clone())
			if !thenOK || !elseOK {
				ok = false
			}
			held = intersect(thenOut, elseOut)
		}
	}
	return held, ok
}

// walkBlock processes one block's instructions, recording held sets for
// field-touching instructions by their FieldInstrs sequence number.
func (a *analyzer) walkBlock(b *ir.BasicBlock, held lockSet) lockSet {
	seq := 0
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpLock:
			// The acquire itself is not protected by the lock it takes.
			a.record(b.Global, seq, held)
			held = held.add(Key{Struct: lockStructName(in), Field: in.Field, Inst: in.Inst})
			seq++
		case ir.OpUnlock:
			// The release write still happens under the lock.
			a.record(b.Global, seq, held)
			held = held.remove(Key{Struct: lockStructName(in), Field: in.Field, Inst: in.Inst})
			seq++
		case ir.OpField:
			a.record(b.Global, seq, held)
			seq++
		case ir.OpCall:
			a.callCtx[in.Callee] = append(a.callCtx[in.Callee], held.clone())
		}
	}
	return held
}

// lockStructName tolerates instructions whose struct pointer was damaged:
// the key degrades to an empty struct name instead of panicking. Such keys
// never match a SharedInstance key of a real struct from a different field,
// so exclusion facts stay sound.
func lockStructName(in ir.Instr) string {
	if in.Struct == nil {
		return ""
	}
	return in.Struct.Name
}

func (a *analyzer) record(b ir.BlockID, seq int, held lockSet) {
	if len(held) == 0 {
		return
	}
	a.info.heldAt[instrRef{b, seq}] = held.clone()
}

// topoOrder returns procedures with callers before callees (valid because
// ir.Finalize rejects recursion). Ties break by name for determinism.
func topoOrder(p *ir.Program) ([]*ir.Procedure, error) {
	callees := make(map[string]map[string]bool)
	callers := make(map[string]int)
	for _, pr := range p.Procs {
		callers[pr.Name] += 0
		for _, b := range pr.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if callees[pr.Name] == nil {
					callees[pr.Name] = make(map[string]bool)
				}
				if !callees[pr.Name][in.Callee] {
					callees[pr.Name][in.Callee] = true
					callers[in.Callee]++
				}
			}
		}
	}
	var ready []string
	for name, n := range callers {
		if n == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	var order []*ir.Procedure
	resolved := 0
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		// Calls to undefined procedures (possible on damaged or partial
		// programs — Finalize rejects them, but the analysis must not rely
		// on a finalized input) contribute nothing to held sets; drop them
		// from the order instead of dereferencing nil.
		if pr := p.Proc(name); pr != nil {
			order = append(order, pr)
			resolved++
		}
		var next []string
		for callee := range callees[name] {
			callers[callee]--
			if callers[callee] == 0 {
				next = append(next, callee)
			}
		}
		sort.Strings(next)
		ready = append(ready, next...)
	}
	if resolved != len(p.Procs) {
		return nil, fmt.Errorf("locks: call graph not acyclic")
	}
	return order, nil
}
