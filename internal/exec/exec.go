// Package exec is the multiprocessor execution engine: it interprets IR
// programs on N simulated CPUs over the coherence simulator, under a global
// virtual clock. It stands in for the paper's native runs on HP-UX
// hardware, producing everything the paper's pipeline collects from a run:
//
//   - precise block/loop execution counts (the PBO profile, §4),
//   - PMU-style samples with synchronized timestamps (Caliper, §4.2),
//   - total cycles, from which the SDET-style throughput metric derives,
//   - per-field coherence statistics (ground truth for evaluation only).
//
// Scheduling is deterministic: every operation another CPU could observe
// or disturb executes in (local time, CPU id) order over the runnable
// threads, so identical inputs and seeds replay identical interleavings.
// A thread past its turn keeps going only through operations that commute
// with everything the others do (see Runner.run).
//
// At Run start every procedure's execution tree is lowered into one flat
// code array with explicit control instructions (code.go): a running
// thread is a program counter, a stack of return pcs and its loop slots.
// The one-op-per-turn tree walker the differential tests compare the flat
// code against is test code (reference_test.go). Field addresses are
// resolved through a layout per struct, with instances placed at
// cache-line-aligned bases the way the HP-UX arena allocator does (§2) —
// re-running the same workload under a different layout is exactly the
// paper's experiment.
package exec

import (
	"fmt"
	"math/bits"
	"math/rand"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// Config parameterizes a run.
type Config struct {
	// Topo is the machine to simulate.
	Topo *machine.Topology
	// Cache is the per-CPU cache geometry.
	Cache coherence.Config
	// Seed drives branch draws, random memory patterns and sampling.
	Seed int64
	// Sampling enables PMU-style collection when non-nil.
	Sampling *sampling.Config
}

// Fixed costs, in cycles, the interpreter charges besides instruction
// latencies and memory accesses.
const (
	// callOverhead is charged per procedure call.
	callOverhead = 8
	// branchCost is charged per synthetic control block.
	branchCost = 1
	// lockHandoff is the extra cost of waking a lock waiter beyond the
	// cache-to-cache transfer of the lock word.
	lockHandoff = 20
)

// FieldRef names a field for statistics attribution.
type FieldRef struct {
	Struct string
	Field  int
}

// FieldStat aggregates what one field's accesses cost during a run.
type FieldStat struct {
	Accesses  uint64
	Misses    uint64
	CohMisses uint64
	Upgrades  uint64
	// FalseSharing counts events where this field's access was the victim.
	FalseSharing uint64
	// CausedFalseSharing counts events where a write to this field
	// invalidated a victim's disjoint bytes (the perf-c2c "HITM source"
	// view: the lock or counter responsible, not just its victims).
	CausedFalseSharing uint64
	StallCycles        int64
}

// Result is everything a run produces.
type Result struct {
	// Cycles is the virtual time at which the last thread finished.
	Cycles int64
	// Completed counts finished top-level procedure iterations ("scripts").
	Completed int64
	// Profile holds precise block and loop counts.
	Profile *profile.Profile
	// Trace holds PMU samples (nil when sampling was disabled).
	Trace *sampling.Trace
	// Coherence aggregates the cache simulator's global counters.
	Coherence coherence.Stats
	// Fields attributes coherence behaviour to struct fields.
	Fields map[FieldRef]*FieldStat
	// ThreadCycles is each thread's finish time.
	ThreadCycles []int64
}

// arena is the line-aligned backing store of one struct type's instances.
// It also carries the run's dense per-field statistics and lock table, so
// the per-access hot path indexes slices instead of probing maps.
type arena struct {
	idx    int // position in arenaList; indexes per-thread instance tables
	base   int64
	count  int
	stride int64
	lay    *layout.Layout
	name   string
	stats  []FieldStat // indexed by field
	locks  []lockState // indexed by instance*numFields + field
	// writers marks, per line of the arena (line index from a.base), the
	// one CPU that can write it, noWriter or manyWriters (see markWriters).
	// nil when read-hit run-ahead is off.
	writers []int32
}

// Line-writer marks besides a CPU id.
const (
	noWriter    = -1 // no thread writes the line
	manyWriters = -2 // threads on two or more CPUs write it
)

// regionAlloc places one ir.Region in the address space.
type regionAlloc struct {
	base      int64
	size      int64
	perThread bool
	stride    int64 // distance between per-thread copies
}

// lockState tracks a spinlock's holder and FIFO waiters. The zero value is
// an unheld lock.
type lockState struct {
	holder  *thread
	waiters []*thread
}

// decInstr is one pre-decoded instruction: every name and layout lookup an
// access needs (arena pointer, field offset/size, region index, callee) is
// resolved once at Run start, so the interpreter's inner loop performs no
// map probes.
type decInstr struct {
	op      ir.Opcode
	write   bool
	oneLine bool // OpField: the field's bytes lie within one cache line

	cycles int64         // OpCompute
	callee *ir.Procedure // OpCall

	arena    *arena // OpField / OpLock / OpUnlock
	field    int32
	fieldOff int64
	size     int
	inst     ir.InstExpr
	// instIdx is the decode-resolved instance for shared-instance
	// expressions (the index is the same for every thread); other kinds
	// resolve through the per-thread tables (see instIndex).
	instIdx int32

	region    *regionAlloc // OpMem
	regionIdx int32
	pattern   ir.MemPattern
	stride    int64
	offset    int64
}

// Runner executes one configuration of one program. Build it, define
// arenas/layouts and threads, then call Run once.
type Runner struct {
	prog *ir.Program
	cfg  Config

	coh       *coherence.System
	collector *sampling.Collector
	prof      *profile.Profile

	arenas    map[string]*arena
	arenaList []*arena // definition order, for deterministic reverse mapping
	regions   map[string]*regionAlloc
	regionIdx map[string]int
	nextAdr   int64
	lineShift uint // log2 of the cache line size

	dec  [][]decInstr // per-block decoded instructions, indexed by BlockID
	code []codeInstr  // the program's flat code (see lower)

	threads []*thread
	cpuUsed map[int]bool
	nparams int // widest thread parameter list (sizes the instance tables)

	// Scheduler state (see run): idShift packs a thread's scheduling key
	// (time, id) into one int64, time<<idShift | id, so a single integer
	// compare is the full lexicographic order, removing the tie-break
	// branch from every heap compare and yield check; timeCap guards the
	// shift against overflow. woken holds the threads released by the
	// current turn's unlock.
	idShift uint
	timeCap int64
	woken   []*thread
	// rounds counts scheduler rounds (runUntil calls), the unit of cost
	// read-hit run-ahead saves; tests pin it.
	rounds int64

	completed int64
	ran       bool
}

// NewRunner builds a runner. Layouts must cover every struct the program
// accesses; arena sizes are set via DefineArena before AddThread.
func NewRunner(prog *ir.Program, cfg Config) (*Runner, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("exec: nil topology")
	}
	coh, err := coherence.NewSystem(cfg.Topo, cfg.Cache)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		prog:      prog,
		cfg:       cfg,
		coh:       coh,
		prof:      profile.New(prog),
		arenas:    make(map[string]*arena),
		regions:   make(map[string]*regionAlloc),
		regionIdx: make(map[string]int),
		cpuUsed:   make(map[int]bool),
		nextAdr:   cfg.Cache.LineSize, // keep address 0 unused
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.Cache.LineSize))),
	}
	if cfg.Sampling != nil {
		sc := *cfg.Sampling
		if sc.Seed == 0 {
			sc.Seed = cfg.Seed + 1
		}
		r.collector, err = sampling.NewCollector(sc, cfg.Topo.NumCPUs())
		if err != nil {
			return nil, err
		}
	}
	// Regions are allocated eagerly; per-thread regions reserve one copy
	// per possible CPU.
	for i, reg := range prog.Regions {
		stride := alignUp(reg.Bytes, cfg.Cache.LineSize)
		ra := &regionAlloc{size: reg.Bytes, perThread: reg.PerThread, stride: stride}
		copies := int64(1)
		if reg.PerThread {
			copies = int64(cfg.Topo.NumCPUs())
		}
		ra.base = r.allocate(stride * copies)
		r.regions[reg.Name] = ra
		r.regionIdx[reg.Name] = i
	}
	return r, nil
}

// allocate reserves n bytes of line-aligned address space with one guard
// line of separation, so distinct allocations never falsely share.
func (r *Runner) allocate(n int64) int64 {
	base := r.nextAdr
	r.nextAdr = alignUp(base+n, r.cfg.Cache.LineSize) + r.cfg.Cache.LineSize
	return base
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

// DefineArena creates count line-aligned instances of the struct laid out
// by lay. Must be called before threads run; one arena per struct.
func (r *Runner) DefineArena(lay *layout.Layout, count int) error {
	if count <= 0 {
		return fmt.Errorf("exec: arena for %s with count %d", lay.Struct.Name, count)
	}
	if int64(lay.LineSize) != r.cfg.Cache.LineSize {
		return fmt.Errorf("exec: layout %s uses line size %d, cache uses %d", lay.Name, lay.LineSize, r.cfg.Cache.LineSize)
	}
	name := lay.Struct.Name
	if _, dup := r.arenas[name]; dup {
		return fmt.Errorf("exec: arena for %s already defined", name)
	}
	if err := lay.Validate(); err != nil {
		return err
	}
	// Cache coloring: pad the instance stride to an odd number of lines so
	// that same-offset lines of successive instances spread over every
	// cache set (gcd(odd, 2^k) = 1). Without this, an even line count
	// aliases all instances onto a fraction of the sets and conflict
	// misses would punish or reward layouts for their *size parity*, an
	// artifact real arena allocators avoid the same way.
	lines := int64(lay.NumLines())
	if lines%2 == 0 {
		lines++
	}
	stride := lines * r.cfg.Cache.LineSize
	nf := len(lay.Struct.Fields)
	a := &arena{
		idx:    len(r.arenaList),
		count:  count,
		stride: stride,
		lay:    lay,
		name:   name,
		stats:  make([]FieldStat, nf),
		locks:  make([]lockState, count*nf),
	}
	a.base = r.allocate(stride * int64(count))
	r.arenas[name] = a
	r.arenaList = append(r.arenaList, a)
	return nil
}

// AddThread binds a thread to a CPU running the named procedure iterations
// times with the given parameter vector. One thread per CPU.
func (r *Runner) AddThread(cpu int, proc string, params []int, iterations int64) error {
	if cpu < 0 || cpu >= r.cfg.Topo.NumCPUs() {
		return fmt.Errorf("exec: cpu %d out of range", cpu)
	}
	if r.cpuUsed[cpu] {
		return fmt.Errorf("exec: cpu %d already has a thread", cpu)
	}
	pr := r.prog.Proc(proc)
	if pr == nil {
		return fmt.Errorf("exec: unknown procedure %q", proc)
	}
	if iterations <= 0 {
		return fmt.Errorf("exec: thread needs positive iterations")
	}
	t := &thread{
		id:      len(r.threads),
		cpu:     cpu,
		entry:   pr,
		params:  append([]int(nil), params...),
		iters:   iterations,
		rng:     rand.New(rand.NewSource(r.cfg.Seed*7919 + int64(cpu)*104729 + 13)),
		cursors: make([]int64, len(r.prog.Regions)),
	}
	r.cpuUsed[cpu] = true
	r.threads = append(r.threads, t)
	return nil
}

// Run executes to completion and returns the result. A runner runs once.
func (r *Runner) Run() (*Result, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	r.lower()
	if r.collector == nil {
		r.markWriters()
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// start prepares a run for either interpreter: it decodes the program,
// which resolves every arena, region and callee name and verifies up front
// that every accessed struct has an arena, builds the threads' instance
// tables, sizes the scheduling keys and reserves the coherence directory.
func (r *Runner) start() error {
	if r.ran {
		return fmt.Errorf("exec: runner already ran")
	}
	r.ran = true
	if len(r.threads) == 0 {
		return fmt.Errorf("exec: no threads")
	}
	if err := r.decode(); err != nil {
		return err
	}
	r.buildInstTables()
	r.idShift = uint(bits.Len(uint(len(r.threads) - 1))) // width of the largest id
	r.timeCap = int64(1) << (62 - r.idShift)
	r.coh.ReserveDirectory(r.nextAdr)
	return nil
}

// result assembles the Result of a finished run. It rebuilds the sparse
// field map from the dense per-arena statistics; only touched fields
// appear, matching the lazily-populated map the hot path used to maintain.
func (r *Runner) result() *Result {
	fields := make(map[FieldRef]*FieldStat)
	for _, a := range r.arenaList {
		for fi := range a.stats {
			if a.stats[fi] != (FieldStat{}) {
				fs := a.stats[fi]
				fields[FieldRef{Struct: a.name, Field: fi}] = &fs
			}
		}
	}
	res := &Result{
		Completed:    r.completed,
		Profile:      r.prof,
		Coherence:    r.coh.GlobalStats(),
		Fields:       fields,
		ThreadCycles: make([]int64, len(r.threads)),
	}
	for i, t := range r.threads {
		res.ThreadCycles[i] = t.time
		if t.time > res.Cycles {
			res.Cycles = t.time
		}
	}
	if r.collector != nil {
		res.Trace = r.collector.Finish()
	}
	return res
}

// decode pre-resolves every instruction of the program against the run's
// arenas, regions and procedures into r.dec, which lower copies into the
// flat code. Called once at Run start, after all DefineArena calls; errors
// here are the ones the interpreter used to raise lazily (missing arena,
// unknown region or callee).
func (r *Runner) decode() error {
	r.dec = make([][]decInstr, r.prog.NumBlocks())
	for _, b := range r.prog.Blocks() {
		ds := make([]decInstr, len(b.Instrs))
		for i, in := range b.Instrs {
			d := decInstr{op: in.Op, write: in.Acc == ir.Write}
			switch in.Op {
			case ir.OpCompute:
				d.cycles = in.Cycles
			case ir.OpCall:
				d.callee = r.prog.Proc(in.Callee)
				if d.callee == nil {
					return fmt.Errorf("exec: unknown procedure %q called in %s", in.Callee, b.Name())
				}
			case ir.OpField, ir.OpLock, ir.OpUnlock:
				a := r.arenas[in.Struct.Name]
				if a == nil {
					return fmt.Errorf("exec: no arena for struct %s accessed in %s", in.Struct.Name, b.Name())
				}
				d.arena = a
				d.field = int32(in.Field)
				d.fieldOff = int64(a.lay.Offsets[in.Field])
				d.size = in.Struct.Fields[in.Field].Size
				// Instance bases are line-aligned, so whether the field
				// straddles a line does not depend on the instance.
				d.oneLine = d.fieldOff>>r.lineShift == (d.fieldOff+int64(d.size)-1)>>r.lineShift
				d.inst = in.Inst
				if in.Inst.Kind == ir.InstShared {
					d.instIdx = int32(in.Inst.Index % a.count)
				}
			case ir.OpMem:
				reg := r.regions[in.Region]
				if reg == nil {
					return fmt.Errorf("exec: unknown region %q", in.Region)
				}
				d.region = reg
				d.regionIdx = int32(r.regionIdx[in.Region])
				d.pattern = in.Pattern
				d.stride = in.Stride
				d.offset = in.Offset
			case ir.OpSpawn, ir.OpJoin, ir.OpSend, ir.OpRecv:
				// Static-only fork/join skeleton markers: the interpreter
				// models spawned tasks as declared threads, so these carry no
				// dynamic semantics here (staticshare derives happens-before
				// from them).
			default:
				return fmt.Errorf("exec: unknown opcode %d", in.Op)
			}
			ds[i] = d
		}
		r.dec[b.Global] = ds
	}
	return nil
}
