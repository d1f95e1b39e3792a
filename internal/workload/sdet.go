package workload

import (
	"fmt"
	"sync"

	"structlayout/internal/coherence"
	"structlayout/internal/ir"
)

// Params are the workload's tunable knobs. They control the mix of kernel
// paths a script executes and therefore how strongly each layout property
// (spatial locality, false sharing, footprint) shows up in throughput.
// Defaults are calibrated so the figure shapes of the paper reproduce on
// the simulated machines.
type Params struct {
	// ScanInstances is how many proc_entry instances the table scan walks.
	ScanInstances int64
	// SyscallBursts is how many syscalls each script issues.
	SyscallBursts int64
	// SeqWriteProb is the probability a syscall bumps pt_seq (the planted
	// hot-line write hazard of struct A).
	SeqWriteProb float64
	// LoadWriteProb is the probability a scheduler-class syscall updates
	// the global load average pt_load. Low enough that the sampled
	// CycleLoss edge stays small next to pt_load's read affinity with the
	// hot state — the bait for the greedy clusterer.
	LoadWriteProb float64
	// CrossVMReads is how many times the syscall path touches pt_vm0 of
	// its own process entry, creating a cross-group affinity edge that
	// tempts the greedy clusterer into splitting the VM group (off by
	// default; kept as an ablation knob).
	CrossVMReads int
	// LookupProbes is the vnode hash-chain probe count per lookup.
	LookupProbes int64
	// MMScan and IOScan are the memobj/bufhdr walk lengths.
	MMScan int64
	// IOScan see MMScan.
	IOScan int64
	// UserSweep is the per-script private-memory sweep length (models the
	// benchmark's user-mode code trashing the cache between syscalls).
	UserSweep int64
	// ScriptsPerThread is the SDET scripts each simulated CPU completes.
	ScriptsPerThread int64
	// NumMounts is how many shared mount-point vnodes take refcount hits.
	NumMounts int
	// Cache is the per-CPU cache geometry used in evaluation runs.
	Cache coherence.Config
}

// DefaultParams returns the calibrated configuration.
func DefaultParams() Params {
	return Params{
		ScanInstances:    384,
		SyscallBursts:    96,
		SeqWriteProb:     0.005,
		LoadWriteProb:    0.05,
		CrossVMReads:     0,
		LookupProbes:     48,
		MMScan:           24,
		IOScan:           24,
		UserSweep:        48,
		ScriptsPerThread: 3,
		NumMounts:        4,
		// 128 KiB per CPU: the slice of the 6 MB Itanium L3 effectively
		// available to these structures under full SDET pressure.
		Cache: coherence.Config{LineSize: 128, Sets: 128, Ways: 8},
	}
}

// Validate sanity-checks the knobs.
func (p Params) Validate() error {
	if p.ScanInstances <= 0 || p.SyscallBursts <= 0 || p.LookupProbes <= 0 ||
		p.MMScan <= 0 || p.IOScan <= 0 || p.UserSweep <= 0 || p.ScriptsPerThread <= 0 {
		return fmt.Errorf("workload: non-positive loop knob in %+v", p)
	}
	if p.SeqWriteProb < 0 || p.SeqWriteProb > 1 {
		return fmt.Errorf("workload: SeqWriteProb %v out of range", p.SeqWriteProb)
	}
	if p.LoadWriteProb < 0 || p.LoadWriteProb > 1 {
		return fmt.Errorf("workload: LoadWriteProb %v out of range", p.LoadWriteProb)
	}
	if p.NumMounts <= 0 {
		return fmt.Errorf("workload: NumMounts must be positive")
	}
	if p.CrossVMReads < 0 {
		return fmt.Errorf("workload: negative CrossVMReads")
	}
	return p.Cache.Validate()
}

// Thread parameter slots.
const (
	// ParamProc selects the thread's own proc_entry instance.
	ParamProc = 0
	// ParamVnode selects the thread's working vnode.
	ParamVnode = 1
	// ParamMount selects the shared mount vnode whose refcount it bumps.
	ParamMount = 2
	// ParamMemObj selects the thread's memory object.
	ParamMemObj = 3
)

// Suite is the assembled benchmark: program, structs, knobs.
type Suite struct {
	Prog    *ir.Program
	Params  Params
	byLabel map[string]*KernelStruct
}

// NewSuite builds the SDET-like program over structs A..E.
func NewSuite(p Params) (*Suite, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Suite{Params: p, byLabel: make(map[string]*KernelStruct)}
	prog := ir.NewProgram("sdet")
	for _, ks := range AllStructs() {
		s.byLabel[ks.Label] = ks
		prog.AddStruct(ks.Type)
	}
	prog.AddRegion("userbuf", 256<<10, true)

	a := s.byLabel["A"].Type
	b := s.byLabel["B"].Type
	c := s.byLabel["C"].Type
	d := s.byLabel["D"].Type
	e := s.byLabel["E"].Type

	// syscall_enter_<k>: the per-CPU-class fast path. Reads the global
	// kernel state, bumps its class's statistics counter on the shared
	// proc entry, sometimes bumps pt_seq, and touches its own entry under
	// the per-entry lock. Classes 0..3 also consult the global load
	// average alongside the hot state (the affinity bait); classes 4..7
	// occasionally update it (the false-sharing hazard).
	// account_stat_<k>: the statistics-accounting helper. Isolating the
	// counter bump in its own procedure mirrors real kernels (accounting
	// macros/functions) and, because affinity is intra-procedural (§3.1),
	// keeps the counters free of gain edges: their layout is decided by
	// CycleLoss alone.
	for k := 0; k < NumStatClasses; k++ {
		bd := prog.NewProc(fmt.Sprintf("account_stat_%d", k))
		bd.Write(a, fmt.Sprintf("pt_stat%d", k), ir.Shared(0))
		bd.Done()
	}

	for k := 0; k < NumStatClasses; k++ {
		bd := prog.NewProc(fmt.Sprintf("syscall_enter_%d", k))
		bd.Lock(a, "pt_lock", ir.Param(ParamProc))
		for _, f := range []string{"pt_state", "pt_flags", "pt_pri", "pt_nice", "pt_addr", "pt_wchan", "pt_pid", "pt_uid"} {
			bd.Read(a, f, ir.Shared(0))
		}
		if k < NumStatClasses/2 {
			bd.Read(a, "pt_load", ir.Shared(0))
		}
		for i := 0; i < p.CrossVMReads; i++ {
			bd.Read(a, "pt_vm0", ir.Param(ParamProc))
		}
		bd.If(p.SeqWriteProb, func(bd *ir.Builder) {
			bd.Write(a, "pt_seq", ir.Shared(0))
		})
		if k >= NumStatClasses/2 {
			bd.If(p.LoadWriteProb, func(bd *ir.Builder) {
				bd.Write(a, "pt_load", ir.Shared(0))
			})
		}
		bd.Call(fmt.Sprintf("account_stat_%d", k))
		bd.Unlock(a, "pt_lock", ir.Param(ParamProc))
		bd.Compute(120)
		bd.Done()
	}

	// proc_scan: the table walk that gives the VM and CPU groups their
	// spatial affinity (Figure 1's pattern).
	{
		bd := prog.NewProc("proc_scan")
		bd.Loop(p.ScanInstances, func(bd *ir.Builder) {
			for i := 0; i < 6; i++ {
				bd.Read(a, fmt.Sprintf("pt_vm%d", i), ir.LoopVar())
			}
			bd.If(0.25, func(bd *ir.Builder) {
				for i := 0; i < 4; i++ {
					bd.Read(a, fmt.Sprintf("pt_cpu%d", i), ir.LoopVar())
				}
			})
			bd.Compute(20)
		})
		bd.Done()
	}

	// vfs_lookup: hash-chain probes (vn_hash then vn_next per probe — the
	// affinity pair the baseline splits), then work on the thread's own
	// vnode, then a refcount bump on a shared mount vnode (struct B's
	// false-sharing hazard).
	{
		bd := prog.NewProc("vfs_lookup")
		bd.Loop(p.LookupProbes, func(bd *ir.Builder) {
			bd.Read(b, "vn_hash", ir.LoopVar())
			bd.Read(b, "vn_type", ir.LoopVar()) // reject non-matching entries
			bd.Read(b, "vn_next", ir.LoopVar())
			bd.Compute(12)
		})
		for _, f := range []string{"vn_type", "vn_flags", "vn_size", "vn_dev"} {
			bd.Read(b, f, ir.Param(ParamVnode))
		}
		bd.Read(b, "vn_atime", ir.Param(ParamVnode))
		bd.Read(b, "vn_mtime", ir.Param(ParamVnode))
		bd.Lock(b, "vn_lock", ir.Param(ParamVnode))
		bd.Write(b, "vn_wcount", ir.Param(ParamVnode))
		bd.Write(b, "vn_dirty", ir.Param(ParamVnode))
		bd.Unlock(b, "vn_lock", ir.Param(ParamVnode))
		// Mount-point crossing: read the mount vnode's flags, then bump
		// its refcount. The reads and the read-modify-write hit the same
		// shared instances from every CPU, so whatever line holds
		// vn_refcnt falsely shares with whatever read-mostly fields are
		// laid out next to it. The branch keeps the crossing in its own
		// basic block: unlike the private-vnode traffic above, these
		// accesses target shared instances, so the alias oracle must not
		// suppress their CycleLoss.
		bd.If(0.98, func(bd *ir.Builder) {
			bd.Read(b, "vn_type", ir.Param(ParamMount))
			bd.Read(b, "vn_flags", ir.Param(ParamMount))
			bd.Read(b, "vn_refcnt", ir.Param(ParamMount))
			bd.Write(b, "vn_refcnt", ir.Param(ParamMount))
		})
		bd.Compute(80)
		bd.Done()
	}

	// mm_fault: walks memory objects reading the lookup group together.
	{
		bd := prog.NewProc("mm_fault")
		bd.Loop(p.MMScan, func(bd *ir.Builder) {
			for i := 0; i < 4; i++ {
				bd.Read(c, fmt.Sprintf("mo_h%d", i), ir.LoopVar())
			}
			bd.Read(c, "mo_base", ir.LoopVar())
			bd.Read(c, "mo_len", ir.LoopVar())
			bd.Read(c, "mo_prot", ir.LoopVar())
			bd.Compute(16)
		})
		bd.Write(c, "mo_gen", ir.Param(ParamMemObj))
		bd.Compute(60)
		bd.Done()
	}

	// sched_tick: per-CPU runqueue bookkeeping, plus a load-balancing scan
	// over the first queues that occasionally marks a victim queue's
	// rq_steal flag — the cross-CPU write that makes rq_steal's placement
	// matter.
	{
		bd := prog.NewProc("sched_tick")
		bd.Loop(8, func(bd *ir.Builder) {
			for i := 0; i < 6; i++ {
				bd.Read(d, fmt.Sprintf("rq_h%d", i), ir.PerCPU())
			}
			bd.Read(d, "rq_clock", ir.PerCPU())
			bd.Write(d, "rq_load", ir.PerCPU())
			bd.Compute(24)
		})
		bd.Loop(16, func(bd *ir.Builder) {
			bd.Read(d, "rq_load", ir.LoopVar())
			bd.If(0.05, func(bd *ir.Builder) {
				bd.Write(d, "rq_steal", ir.LoopVar())
			})
			bd.Compute(10)
		})
		bd.Done()
	}

	// io_submit: buffer-header walk (struct E's affinity group).
	{
		bd := prog.NewProc("io_submit")
		bd.Loop(p.IOScan, func(bd *ir.Builder) {
			for i := 0; i < 5; i++ {
				bd.Read(e, fmt.Sprintf("bh_h%d", i), ir.LoopVar())
			}
			bd.Read(e, "bh_blkno", ir.LoopVar())
			bd.Compute(16)
		})
		bd.Write(e, "bh_qstate", ir.Param(ParamVnode))
		bd.Compute(60)
		bd.Done()
	}

	// script_<k>: one SDET script for stat class k: a burst of syscalls,
	// then the heavier kernel paths, then user-mode memory traffic.
	for k := 0; k < NumStatClasses; k++ {
		bd := prog.NewProc(fmt.Sprintf("script_%d", k))
		kk := k
		bd.Loop(p.SyscallBursts, func(bd *ir.Builder) {
			bd.Call(fmt.Sprintf("syscall_enter_%d", kk))
		})
		bd.Call("vfs_lookup")
		bd.Call("proc_scan")
		bd.Call("mm_fault")
		bd.Call("sched_tick")
		bd.Call("io_submit")
		bd.Loop(p.UserSweep, func(bd *ir.Builder) {
			bd.MemSweep("userbuf", ir.Write, 1024)
			bd.Compute(30)
		})
		bd.Done()
	}

	if err := prog.Finalize(); err != nil {
		return nil, err
	}
	s.Prog = prog
	return s, nil
}

// Struct returns the kernel struct with the paper label "A".."E".
func (s *Suite) Struct(label string) *KernelStruct { return s.byLabel[label] }

// Labels returns the five labels in order.
func Labels() []string { return []string{"A", "B", "C", "D", "E"} }

// EntryFor returns the script procedure a CPU's thread runs.
func (s *Suite) EntryFor(cpu int) string {
	return fmt.Sprintf("script_%d", cpu%NumStatClasses)
}

// PrivateAliasOracle implements the paper's alias-analysis mitigation for
// CycleLoss over-approximation (§3.2): "whenever alias analysis determines
// that the addresses of two structure instances do not alias, then we can
// conclude that there is no false sharing between the fields of those
// structures even though the basic blocks containing them are highly
// concurrent."
//
// In this workload the facts are static: the ParamProc, ParamVnode and
// ParamMemObj parameter slots are assigned pairwise-distinct instances per
// thread (see ThreadParams), and PerCPU instances are private by
// construction. A block pair is declared non-aliasing when every struct
// access in both blocks resolves through one of those private selectors.
func PrivateAliasOracle(prog *ir.Program) func(b1, b2 ir.BlockID) bool {
	private := func(id ir.BlockID) bool {
		for _, in := range prog.Block(id).FieldInstrs() {
			switch in.Inst.Kind {
			case ir.InstPerCPU:
			case ir.InstParam:
				if in.Inst.Index == ParamMount {
					return false // mounts are shared instances
				}
			default:
				return false // Shared and LoopVar instances alias
			}
		}
		return true
	}
	// The memo is guarded: one oracle may serve analyses running on
	// different workers (the robustness sweep fans severity cells out in
	// parallel), and the verdict per block is deterministic either way.
	var mu sync.Mutex
	cache := make(map[ir.BlockID]bool)
	memo := func(id ir.BlockID) bool {
		mu.Lock()
		v, ok := cache[id]
		mu.Unlock()
		if !ok {
			v = private(id)
			mu.Lock()
			cache[id] = v
			mu.Unlock()
		}
		return v
	}
	return func(b1, b2 ir.BlockID) bool { return memo(b1) && memo(b2) }
}

// ThreadParams assigns a CPU's parameter vector. Assignments are stable
// across runs (run-to-run variance comes from branch draws and random
// memory offsets, like rerunning SDET on warm hardware).
func (s *Suite) ThreadParams(cpu int, seed int64) []int {
	params := make([]int, 4)
	// Instance 0 of proc_entry is the shared kernel-global entry; threads'
	// own entries start above it so no thread's per-entry lock lives in
	// the globally read instance.
	params[ParamProc] = cpu + 8
	params[ParamVnode] = s.Params.NumMounts + cpu*3
	params[ParamMount] = cpu % s.Params.NumMounts
	params[ParamMemObj] = cpu * 5
	return params
}
