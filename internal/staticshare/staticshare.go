// Package staticshare implements a zero-profile static sharing analysis
// over the IR: a may-happen-in-parallel (MHP) relation between basic
// blocks, a thread-instance footprint for every field-touching
// instruction, and a per-field-pair sharing classification
// (never-shared, read-shared, write-shared, lock-serialized).
//
// The paper's CycleLoss is purely dynamic — sampled CodeConcurrency (§4)
// decides which block pairs ran concurrently — so when traces are empty
// or the quality gate grades the collection DEGRADED, the pipeline falls
// back to affinity-only layouts with no false-sharing protection at all.
// This analysis recovers a conservative static prior for exactly that
// regime: an instruction's instance expression plus the thread
// declarations decide whether two accesses can touch the same instance
// from different threads, the definitely-held lock sets (internal/locks)
// decide whether a common shared lock serializes them, and any remaining
// write conflict is statically certain false sharing if the layout
// co-locates the two fields.
//
// Three consumers sit on top: a CycleLoss prior blended into the FLG when
// the trace is missing or degraded (prior.go), a structure-layout linter
// (lint.go), and a cross-check that flags sampled CC mass on block pairs
// the MHP relation proves exclusive — a measurement-quality signal the
// dynamic pipeline feeds into internal/quality.
package staticshare

import (
	"errors"
	"fmt"
	"sort"

	"structlayout/internal/concurrency"
	"structlayout/internal/ir"
	"structlayout/internal/irtext"
	"structlayout/internal/locks"
)

// Thread describes one runtime thread for the analysis: the CPU it is
// pinned to (resolves percpu instance expressions), its entry procedure,
// its parameter vector (resolves param instance expressions; nil means the
// bindings are unknown and param-derived instances are treated as
// possibly-overlapping), and its top-level iteration count (weights static
// frequencies).
type Thread struct {
	CPU    int
	Proc   string
	Params []int
	Iters  int64
}

// Config parameterizes Analyze.
type Config struct {
	// Threads are the declared runtime threads. With no threads the
	// analysis still runs (lock-discipline facts remain useful) but no
	// sharing can be proven: nothing executes.
	Threads []Thread
	// Arenas maps struct name to instance count, when known. Instance
	// indices compare modulo the count, matching the interpreter's
	// resolution. Structs without an entry have a statically unknown
	// count (the go/ast frontend routinely produces these): equal raw
	// indices still must-overlap (i mod n == i mod n for every n), but
	// distinct raw indices only may-overlap — with an unknown count any
	// two indices can alias (0 and 8 collide at any count dividing 8),
	// so distinctness is never provable. DSL files never hit this path:
	// FileConfig fills the interpreter's one-instance default for
	// accessed-but-undeclared structs.
	Arenas map[string]int
}

// FileConfig derives the analysis configuration from a parsed DSL file:
// the declared arenas and threads, plus the interpreter's one-instance
// default for structs the program declares but the file allocates no
// arena for (driver.Run resolves their indices modulo 1, so the static
// pass must too — leaving the count unknown would degrade provable
// overlaps to may-overlaps the interpreter contradicts).
func FileConfig(f *irtext.File) Config {
	cfg := Config{Arenas: make(map[string]int, len(f.Arenas))}
	for name, n := range f.Arenas {
		cfg.Arenas[name] = n
	}
	if f.Prog != nil {
		for _, st := range f.Prog.Structs {
			if _, ok := cfg.Arenas[st.Name]; !ok {
				cfg.Arenas[st.Name] = 1
			}
		}
	}
	for _, td := range f.Threads {
		cfg.Threads = append(cfg.Threads, Thread{
			CPU:    td.CPU,
			Proc:   td.Proc,
			Params: append([]int(nil), td.Params...),
			Iters:  td.Iters,
		})
	}
	return cfg
}

// Footprint classifies how an access's instance expression maps the
// reaching threads onto struct instances.
type Footprint uint8

const (
	// FootShared: a fixed instance index — one runtime object for all
	// threads that reach the access.
	FootShared Footprint = iota
	// FootPerCPU: the executing CPU's own instance.
	FootPerCPU
	// FootPerThread: param-derived and provably distinct across the
	// reaching threads (every thread binds a different instance).
	FootPerThread
	// FootParam: param-derived with unknown or overlapping bindings.
	FootParam
	// FootSweep: loop-variable derived — the access sweeps the whole
	// arena, touching every instance.
	FootSweep
)

// String renders the footprint kind.
func (f Footprint) String() string {
	switch f {
	case FootShared:
		return "shared"
	case FootPerCPU:
		return "per-cpu"
	case FootPerThread:
		return "per-thread"
	case FootParam:
		return "param"
	case FootSweep:
		return "sweep"
	default:
		return "?"
	}
}

// Access is one field-touching instruction with its static facts.
type Access struct {
	// Block and Seq locate the instruction: Seq indexes the block's
	// FieldInstrs, matching the lock analysis and the FMF.
	Block ir.BlockID
	Seq   int
	// Struct and Field name the member touched; Write covers stores and
	// lock/unlock operations (both are read-modify-write traffic).
	Struct *ir.StructType
	Field  int
	Write  bool
	IsLock bool
	// Inst is the instance expression; Foot its resolved footprint.
	Inst ir.InstExpr
	Foot Footprint
	// Threads lists (as indices into Config.Threads, sorted) the threads
	// whose execution can reach this instruction.
	Threads []int
	// Held is the definitely-held lock set, nil when the lock analysis
	// degraded or no lock is provably held.
	Held []locks.Key
	// Freq is the static execution-frequency estimate: loop trip counts ×
	// branch probabilities × interprocedural call-site frequency ×
	// thread iteration counts.
	Freq float64

	// key numbers the access's conflictKey (instance expression,
	// reaching threads, held set, happens-before segments): accesses of
	// one struct with equal keys get equal verdicts against any other.
	key int
}

// PairClass is the static sharing classification of a field pair, ordered
// by severity so aggregation can take the maximum.
type PairClass uint8

const (
	// NeverShared: no two distinct threads can touch the two fields of a
	// common instance at all.
	NeverShared PairClass = iota
	// ReadShared: distinct threads can touch a common instance, but every
	// concurrent combination is read/read.
	ReadShared
	// LockSerialized: conflicting combinations exist, but each is
	// serialized by a lock both sides provably hold on the same instance.
	LockSerialized
	// WriteShared: distinct threads can access a common instance with at
	// least one write and no common lock — the false-sharing class.
	WriteShared
)

// String renders the class.
func (c PairClass) String() string {
	switch c {
	case NeverShared:
		return "never-shared"
	case ReadShared:
		return "read-shared"
	case LockSerialized:
		return "lock-serialized"
	case WriteShared:
		return "write-shared"
	default:
		return "?"
	}
}

// PairInfo is the aggregated verdict for one (canonically ordered) field
// pair of a struct.
type PairInfo struct {
	Class PairClass
	// Certain is set when a WriteShared verdict rests on a must-overlap:
	// the two instance expressions provably resolve to the same instance
	// for some pair of distinct threads. May-overlaps (unknown parameter
	// bindings) leave Certain false.
	Certain bool
	// Weight ranks the pair: the static co-execution frequency summed
	// over the conflicting access pairs.
	Weight float64
	// A1, A2 index Result.Accesses: the strongest evidence pair.
	A1, A2 int
}

// Result is the analysis outcome.
type Result struct {
	Prog    *ir.Program
	Cfg     Config
	Threads []Thread
	// Locks is the lock analysis, nil when it degraded; LocksErr then
	// carries the reason and exclusion facts are conservatively absent.
	Locks    *locks.Info
	LocksErr error
	// Accesses lists every field-touching instruction reached by at
	// least the program text (whether or not any thread reaches it).
	Accesses []Access
	// Pairs maps struct name → canonical field pair → verdict. Pairs
	// absent from the inner map are NeverShared.
	Pairs map[string]map[[2]int]PairInfo

	byStruct map[string][]int // struct name -> indices into Accesses
	reach    map[string][]int // proc name -> sorted thread indices
	procFreq map[string]float64
	hb       *hbState // happens-before graph; nil without sync statements
}

// Analyze runs the full analysis of a finalized program; a program
// Finalize has not accepted is an error. Damaged inputs degrade instead
// of panicking: a failed lock analysis leaves Locks nil (no exclusion
// facts), and any internal inconsistency surfaces as an error — the same
// contract internal/core applies to the trace and FMF fallbacks.
func Analyze(p *ir.Program, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("staticshare: analysis failed on damaged program: %v", r)
		}
	}()
	if p == nil {
		return nil, errors.New("staticshare: nil program")
	}
	if p.CallOrder() == nil {
		return nil, errors.New("staticshare: program not finalized")
	}
	for _, t := range cfg.Threads {
		if p.Proc(t.Proc) == nil {
			return nil, fmt.Errorf("staticshare: thread entry procedure %q not in program", t.Proc)
		}
	}
	r := &Result{
		Prog:     p,
		Cfg:      cfg,
		Threads:  append([]Thread(nil), cfg.Threads...),
		Pairs:    make(map[string]map[[2]int]PairInfo),
		byStruct: make(map[string][]int),
		reach:    make(map[string][]int),
		procFreq: make(map[string]float64),
	}
	// Task discovery extends Threads with spawned children, so it must
	// precede every propagation that seeds from the thread list.
	if err := r.discoverTasks(); err != nil {
		return nil, err
	}
	r.buildHB()
	r.computeReach()
	localFreq := r.computeFreq()

	// Lock analysis, graceful: a damaged program costs exclusion facts,
	// not the whole analysis.
	entries := make([]string, 0, len(r.Threads))
	seen := make(map[string]bool)
	for _, t := range r.Threads {
		if !seen[t.Proc] {
			seen[t.Proc] = true
			entries = append(entries, t.Proc)
		}
	}
	sort.Strings(entries)
	if li, lerr := locks.Analyze(p, entries); lerr != nil {
		r.LocksErr = lerr
	} else {
		r.Locks = li
	}

	r.collectAccesses(localFreq)
	r.classify()
	return r, nil
}

// walkFreq accumulates per-entry block frequencies over the execution
// tree, mirroring the interpreter's counting: loop headers run count+1
// times per entry, branch arms scale by probability, joins run once.
func walkFreq(nodes []ir.ExecNode, f float64, out map[ir.BlockID]float64) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			if n.Block != nil {
				out[n.Block.Global] += f
			}
		case *ir.ExecLoop:
			if n.Loop != nil && n.Loop.Header != nil {
				out[n.Loop.Header.Global] += f * float64(n.Count+1)
			}
			walkFreq(n.Body, f*float64(n.Count), out)
		case *ir.ExecIf:
			if n.Cond != nil {
				out[n.Cond.Global] += f
			}
			walkFreq(n.Then, f*n.Prob, out)
			walkFreq(n.Else, f*(1-n.Prob), out)
			if n.Join != nil {
				out[n.Join.Global] += f
			}
		}
	}
}

// collectAccesses records every field-touching instruction with its
// reaching threads, held locks, footprint, frequency and conflict key.
func (r *Result) collectAccesses(local map[ir.BlockID]float64) {
	keys := make(map[conflictKey]int)
	for _, pr := range r.Prog.Procs {
		threads := r.reach[pr.Name]
		tk := threadsKey(threads)
		pf := r.procFreq[pr.Name]
		for _, b := range pr.Blocks {
			seq := 0
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpField, ir.OpLock, ir.OpUnlock:
					if in.Struct == nil {
						seq++
						continue
					}
					a := Access{
						Block:   b.Global,
						Seq:     seq,
						Struct:  in.Struct,
						Field:   in.Field,
						Write:   in.Acc == ir.Write || in.Op != ir.OpField,
						IsLock:  in.Op != ir.OpField,
						Inst:    in.Inst,
						Threads: threads,
						Freq:    pf * local[b.Global],
					}
					if r.Locks != nil {
						a.Held = r.Locks.HeldAt(b.Global, seq)
					}
					ck := conflictKey{in.Inst, tk, heldKeyEnc(a.Held), r.segKeyOf(threads, b.Global)}
					key, ok := keys[ck]
					if !ok {
						key = len(keys)
						keys[ck] = key
					}
					a.key = key
					a.Foot = r.footprint(a)
					r.byStruct[in.Struct.Name] = append(r.byStruct[in.Struct.Name], len(r.Accesses))
					r.Accesses = append(r.Accesses, a)
					seq++
				}
			}
		}
	}
}

// footprint resolves the access's instance expression against the
// reaching threads.
func (r *Result) footprint(a Access) Footprint {
	switch a.Inst.Kind {
	case ir.InstShared:
		return FootShared
	case ir.InstPerCPU:
		return FootPerCPU
	case ir.InstLoopVar:
		return FootSweep
	case ir.InstParam:
		if len(a.Threads) > 1 && !r.counted(a.Struct.Name) {
			// Distinct raw bindings prove nothing without an instance
			// count: any two indices may alias modulo the real count.
			return FootParam
		}
		seen := make(map[int]bool, len(a.Threads))
		for _, ti := range a.Threads {
			idx, known, _ := r.resolveInst(ti, a.Struct.Name, a.Inst)
			if !known {
				return FootParam
			}
			if seen[idx] {
				return FootParam // two threads bind the same instance
			}
			seen[idx] = true
		}
		return FootPerThread
	default:
		return FootParam
	}
}

// resolveInst resolves an instance expression for thread ti (an index
// into Threads). known is false when the expression depends on an unbound
// parameter; sweep is true for loop-variable expressions (the access
// ranges over the whole arena). Indices reduce modulo the arena count
// when one is declared, matching the interpreter.
func (r *Result) resolveInst(ti int, structName string, e ir.InstExpr) (idx int, known, sweep bool) {
	switch e.Kind {
	case ir.InstShared:
		idx, known = e.Index, true
	case ir.InstPerCPU:
		idx, known = r.Threads[ti].CPU, true
	case ir.InstParam:
		p := r.Threads[ti].Params
		if e.Index < 0 || e.Index >= len(p) {
			return 0, false, false
		}
		idx, known = p[e.Index], true
	case ir.InstLoopVar:
		return 0, false, true
	}
	if n := r.Cfg.Arenas[structName]; n > 0 {
		idx = ((idx % n) + n) % n
	}
	return idx, known, false
}

// ResolveInst exposes instance resolution for the mhpcheck interleaving
// harness, which must model lock instances exactly the way the static
// exclusion proofs resolve them.
func (r *Result) ResolveInst(ti int, structName string, e ir.InstExpr) (idx int, known, sweep bool) {
	return r.resolveInst(ti, structName, e)
}

// counted reports whether the struct's instance count is statically
// known. Distinctness proofs (ovNo, FootPerThread) are only sound with a
// count: two raw indices that differ still collide modulo any count that
// divides their difference.
func (r *Result) counted(structName string) bool {
	return r.Cfg.Arenas[structName] > 0
}

// overlapKind is the instance-overlap lattice for one thread pair.
type overlapKind uint8

const (
	ovNo overlapKind = iota
	ovMay
	ovMust
)

// overlap decides whether accesses a1 (on thread t1) and a2 (on thread
// t2) can touch the same struct instance.
func (r *Result) overlap(t1 int, a1 *Access, t2 int, a2 *Access) overlapKind {
	i1, k1, s1 := r.resolveInst(t1, a1.Struct.Name, a1.Inst)
	i2, k2, s2 := r.resolveInst(t2, a2.Struct.Name, a2.Inst)
	if s1 || s2 {
		// A sweep touches every instance of the arena, so it certainly
		// meets whatever instance the other access resolves to.
		return ovMust
	}
	if !k1 || !k2 {
		return ovMay
	}
	if i1 == i2 {
		return ovMust
	}
	if !r.counted(a1.Struct.Name) {
		// Unknown instance count: equal indices must collide at any
		// count, but distinct indices only prove distinctness modulo a
		// known one.
		return ovMay
	}
	return ovNo
}

// conflictVerdict folds the thread-pair lattice for one access pair:
// the strongest non-excluded overlap, and whether any overlapping
// combination was lock-serialized. Thread pairs the happens-before
// graph proves ordered contribute nothing at all — an ordered pair
// cannot conflict, so it neither raises the overlap nor counts as
// lock-serialized.
func (r *Result) conflictVerdict(a1, a2 *Access) (ov overlapKind, excluded bool) {
	for _, t1 := range a1.Threads {
		for _, t2 := range a2.Threads {
			if t1 == t2 {
				continue
			}
			o := r.overlap(t1, a1, t2, a2)
			if o == ovNo {
				continue
			}
			if r.hbExcluded(t1, a1.Block, t2, a2.Block) {
				continue
			}
			if r.heldPairExcludes(t1, a1.Held, t2, a2.Held) {
				excluded = true
				continue
			}
			if o > ov {
				ov = o
			}
			if ov == ovMust {
				return ov, excluded
			}
		}
	}
	return ov, excluded
}

func pairKey(f1, f2 int) [2]int {
	if f1 > f2 {
		f1, f2 = f2, f1
	}
	return [2]int{f1, f2}
}

// blockHeld returns the lock set provably held across every
// field-touching instruction of the block (the intersection), nil when
// unknown or empty.
func (r *Result) blockHeld(b *ir.BasicBlock) []locks.Key {
	if r.Locks == nil || b == nil {
		return nil
	}
	var held []locks.Key
	first := true
	for seq := range b.FieldInstrs() {
		h := r.Locks.HeldAt(b.Global, seq)
		if len(h) == 0 {
			return nil
		}
		if first {
			held = append([]locks.Key(nil), h...)
			first = false
			continue
		}
		var keep []locks.Key
		for _, k := range held {
			for _, k2 := range h {
				if k == k2 {
					keep = append(keep, k)
					break
				}
			}
		}
		held = keep
		if len(held) == 0 {
			return nil
		}
	}
	return held
}

// Exclusive reports whether two blocks provably never execute in
// parallel: either no two distinct threads reach them, or every
// reaching thread pair is serialized — by a common lock held on the
// same concrete instance across both blocks, or by the happens-before
// graph ordering every segment combination the blocks can execute in.
// It is the complement of MayHappenInParallel and deliberately
// conservative — unknown always means "may be parallel".
func (r *Result) Exclusive(b1, b2 ir.BlockID) bool {
	blk1, blk2 := r.blockAt(b1), r.blockAt(b2)
	if blk1 == nil || blk2 == nil {
		return false
	}
	t1s := r.reach[blk1.Proc.Name]
	t2s := r.reach[blk2.Proc.Name]
	if len(t1s) == 0 || len(t2s) == 0 {
		return true // never executes at all
	}
	if len(t1s) == 1 && len(t2s) == 1 && t1s[0] == t2s[0] {
		return true // a single thread executes sequentially
	}
	h1, h2 := r.blockHeld(blk1), r.blockHeld(blk2)
	locksUsable := len(h1) > 0 && len(h2) > 0
	for _, t1 := range t1s {
		for _, t2 := range t2s {
			if t1 == t2 {
				continue
			}
			if locksUsable && r.heldPairExcludes(t1, h1, t2, h2) {
				continue
			}
			if r.hbExcluded(t1, b1, t2, b2) {
				continue
			}
			return false
		}
	}
	return true
}

// MayHappenInParallel reports whether two blocks can execute concurrently
// on distinct threads.
func (r *Result) MayHappenInParallel(b1, b2 ir.BlockID) bool { return !r.Exclusive(b1, b2) }

// heldPairExcludes reports whether some lock provably serializes two
// accesses holding h1 (on thread t1) and h2 (on thread t2): both hold a
// lock on the same field of the same struct whose instance expressions
// resolve, for these two threads, to the same concrete instance. Equal
// known param bindings exclude too, not only syntactically shared
// instances.
func (r *Result) heldPairExcludes(t1 int, h1 []locks.Key, t2 int, h2 []locks.Key) bool {
	for _, k1 := range h1 {
		for _, k2 := range h2 {
			if k1.Struct != k2.Struct || k1.Field != k2.Field || k1.Struct == "" {
				continue
			}
			i1, kn1, sw1 := r.resolveInst(t1, k1.Struct, k1.Inst)
			i2, kn2, sw2 := r.resolveInst(t2, k2.Struct, k2.Inst)
			if !sw1 && !sw2 && kn1 && kn2 && i1 == i2 {
				return true
			}
		}
	}
	return false
}

func (r *Result) blockAt(b ir.BlockID) *ir.BasicBlock {
	if b < 0 || int(b) >= r.Prog.NumBlocks() {
		return nil
	}
	blk := r.Prog.Block(b)
	if blk == nil || blk.Proc == nil {
		return nil
	}
	return blk
}

// CCCheck is the cross-validation of a sampled Concurrency Map against
// the MHP relation.
type CCCheck struct {
	// TotalMass and ContradictedMass sum CC over all pairs and over pairs
	// the MHP relation proves exclusive; a clean, accurately-attributed
	// trace has zero contradicted mass.
	TotalMass        float64
	ContradictedMass float64
	// ContradictedPairs counts the offending pairs; Worst is the one with
	// the most mass (zero Pair when none).
	ContradictedPairs int
	Worst             concurrency.Pair
	// Agreement is 1 − ContradictedMass/TotalMass (1 when the map is
	// empty): the fraction of sampled concurrency the static analysis
	// considers possible.
	Agreement float64
}

// CheckCC cross-validates sampled CodeConcurrency against the MHP
// relation: CC mass on block pairs that provably cannot run in parallel
// is measurement error (misattributed CPUs, timing skew), and its share
// is a calibrated consistency signal for internal/quality.
func (r *Result) CheckCC(cm *concurrency.Map) CCCheck {
	out := CCCheck{Agreement: 1}
	if cm == nil || len(cm.CC) == 0 {
		return out
	}
	pairs := make([]concurrency.Pair, 0, len(cm.CC))
	for p := range cm.CC {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	var worstMass float64
	for _, p := range pairs {
		v := cm.CC[p]
		out.TotalMass += v
		if v > 0 && r.Exclusive(p.A, p.B) {
			out.ContradictedMass += v
			out.ContradictedPairs++
			if v > worstMass {
				worstMass = v
				out.Worst = p
			}
		}
	}
	if out.TotalMass > 0 {
		out.Agreement = 1 - out.ContradictedMass/out.TotalMass
	}
	return out
}
