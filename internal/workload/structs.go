// Package workload builds the reproduction's stand-in for the paper's
// evaluation environment (§5): five kernel-style record types with the
// qualitative properties of the HP-UX structs A–E, a multi-process
// SDET-like script workload that stresses them, hand-tuned baseline
// layouts, and the measurement protocol (warm-up + N runs, outlier-trimmed
// mean of the scripts/hour throughput). The suite states its run harness
// as the irtext.File a DSL program declares (Suite.File), and NewRunner is
// the one runner assembly for every such file.
//
// The real structs are proprietary; these are synthesized to match the
// paper's published characteristics:
//
//   - A has over one hundred fields and is the only struct with heavy
//     false sharing (per-CPU-class statistics written into one shared
//     instance); the naive sort-by-hotness layout packs those counters
//     next to hot read-mostly fields and collapses on a 128-way machine.
//   - B..E have many fields but only minor false sharing; their layouts
//     mostly trade spatial locality.
//   - All baselines are "hand-tuned over many years": near-optimal, with
//     the small residual mistakes (a split affinity pair, a stray written
//     field in a hot read line) that §5.2's incremental mode is shown to
//     find and fix.
package workload

import (
	"fmt"

	"structlayout/internal/ir"
	"structlayout/internal/layout"
)

// KernelStruct is one synthetic kernel record plus its hand-tuned layout.
type KernelStruct struct {
	// Label is the paper's name for it: "A".."E".
	Label string
	// Type is the record type.
	Type *ir.StructType
	// BaselineOrder is the hand-tuned declaration order.
	BaselineOrder []int
	// ArenaCount is how many instances the kernel arena holds.
	ArenaCount int
}

// Baseline materializes the hand-tuned layout at the given line size. The
// baseline orders are static data defined in this package, so a failure is
// a programmer error and the panic here is a deliberate invariant; a bad
// lineSize from user input is the one caller-supplied failure mode.
func (k *KernelStruct) Baseline(lineSize int) *layout.Layout {
	l, err := layout.FromOrder(k.Type, "baseline", k.BaselineOrder, lineSize)
	if err != nil {
		panic(fmt.Sprintf("workload: struct %s baseline order is invalid (programmer error?): %v", k.Label, err))
	}
	return l
}

// NumStatClasses is the number of per-CPU-class statistics slots in struct
// A. CPUs hash into these classes; each class writes only its own counter,
// so co-locating two classes' counters creates pure false sharing.
const NumStatClasses = 8

// fieldNames collects names for order-by-name helpers.
func orderOf(st *ir.StructType, names ...string) []int {
	out := make([]int, 0, len(names))
	for _, n := range names {
		i := st.FieldIndex(n)
		if i < 0 {
			panic(fmt.Sprintf("workload: struct %s has no field %q", st.Name, n))
		}
		out = append(out, i)
	}
	if len(out) != len(st.Fields) {
		panic(fmt.Sprintf("workload: order for %s names %d of %d fields", st.Name, len(out), len(st.Fields)))
	}
	return out
}

// StructA synthesizes the paper's struct A: a process-table-entry-like
// record with 108 fields, hot read-mostly state, two spatial-affinity
// groups walked by a table scan, per-CPU-class statistics counters, a
// per-instance lock, and a long cold tail.
//
// Planted baseline imperfection (what §5.2's "best" mode finds): pt_seq, a
// rarely-but-concurrently written sequence field, sits in the hot
// read-mostly line. Everything else about the baseline is tuned: the VM and
// CPU walk groups share one line, each statistics counter owns a line
// (padded by its scratch buffer), and the lock is isolated.
func StructA() *KernelStruct {
	var fields []ir.Field
	add := func(fs ...ir.Field) {
		fields = append(fields, fs...)
	}
	// Hot read-mostly kernel state (read by every CPU on the shared
	// instance).
	hot := []string{"pt_state", "pt_flags", "pt_pri", "pt_nice", "pt_addr", "pt_wchan", "pt_pid", "pt_uid"}
	for _, n := range hot {
		add(ir.I64(n))
	}
	// Moderately written sequence number (baseline mistake #1: lives with
	// the hot reads).
	add(ir.I64("pt_seq"))
	// Global load average: read on several syscall paths together with the
	// hot state (a genuine affinity edge) but also written by every CPU.
	// The hand-tuned baseline isolates it; the greedy clusterer is tempted
	// to pull it next to the hot reads because the sampled CycleLoss edge
	// is small next to the profiled CycleGain edge — the deliberate
	// suboptimality behind the paper's ~5% automatic-layout slowdown on
	// struct A.
	add(ir.I64("pt_load"))
	// Affinity group VM: walked together by the table scan.
	for i := 0; i < 6; i++ {
		add(ir.I64(fmt.Sprintf("pt_vm%d", i)))
	}
	// Affinity group CPU: read together on a slower path.
	for i := 0; i < 4; i++ {
		add(ir.I64(fmt.Sprintf("pt_cpu%d", i)))
	}
	// Per-CPU-class statistics counters (the false-sharing hazard) and
	// their per-class scratch buffers (cold, 120 bytes: the hand-tuned
	// baseline uses them to keep each counter alone on its line).
	for i := 0; i < NumStatClasses; i++ {
		add(ir.I64(fmt.Sprintf("pt_stat%d", i)))
		add(ir.Arr(fmt.Sprintf("pt_statbuf%d", i), 15, 8, 8))
	}
	// Per-instance spinlock.
	add(ir.I64("pt_lock"))
	// Cold tail: 72 fields of mixed widths.
	for i := 0; i < 20; i++ {
		add(ir.I64(fmt.Sprintf("pt_c64_%02d", i)))
	}
	for i := 0; i < 20; i++ {
		add(ir.I32(fmt.Sprintf("pt_c32_%02d", i)))
	}
	for i := 0; i < 20; i++ {
		add(ir.I16(fmt.Sprintf("pt_c16_%02d", i)))
	}
	for i := 0; i < 12; i++ {
		add(ir.I8(fmt.Sprintf("pt_c8_%02d", i)))
	}
	st := ir.NewStruct("proc_entry", fields...)

	// Hand-tuned baseline order.
	var names []string
	names = append(names, hot...)
	names = append(names, "pt_seq") // mistake #1: written field in hot line
	for i := 0; i < 7; i++ {        // pad line 0 to 128 bytes with cold
		names = append(names, fmt.Sprintf("pt_c64_%02d", i))
	}
	// Line 1: the VM walk group, the CPU walk group, cold fill.
	for i := 0; i < 6; i++ {
		names = append(names, fmt.Sprintf("pt_vm%d", i))
	}
	for i := 0; i < 4; i++ {
		names = append(names, fmt.Sprintf("pt_cpu%d", i))
	}
	for i := 7; i < 13; i++ {
		names = append(names, fmt.Sprintf("pt_c64_%02d", i))
	}
	// Line 2: the lock and the global load average, isolated from all
	// read-mostly lines by cold fields.
	names = append(names, "pt_lock", "pt_load")
	for i := 13; i < 20; i++ {
		names = append(names, fmt.Sprintf("pt_c64_%02d", i))
	}
	for i := 0; i < 14; i++ {
		names = append(names, fmt.Sprintf("pt_c32_%02d", i))
	}
	// Lines 3..10: one stat counter per line, padded by its scratch buffer
	// (8 + 120 = 128 bytes each).
	for i := 0; i < NumStatClasses; i++ {
		names = append(names, fmt.Sprintf("pt_stat%d", i), fmt.Sprintf("pt_statbuf%d", i))
	}
	// Cold tail.
	for i := 14; i < 20; i++ {
		names = append(names, fmt.Sprintf("pt_c32_%02d", i))
	}
	for i := 0; i < 20; i++ {
		names = append(names, fmt.Sprintf("pt_c16_%02d", i))
	}
	for i := 0; i < 12; i++ {
		names = append(names, fmt.Sprintf("pt_c8_%02d", i))
	}
	return &KernelStruct{Label: "A", Type: st, BaselineOrder: orderOf(st, names...), ArenaCount: 512}
}

// StructB synthesizes struct B: a vnode-like record of 36 fields. Its
// residual baseline issues are a hot affinity pair split across lines and a
// shared reference count sitting in the hot read line — the combination
// behind the paper's best single improvement (+3.2% via the incremental
// mode).
func StructB() *KernelStruct {
	var fields []ir.Field
	hot := []string{"vn_type", "vn_flags", "vn_size", "vn_dev"}
	for _, n := range hot {
		fields = append(fields, ir.I64(n))
	}
	// Affinity pair 1 (lookup path) and 2 (attribute path).
	fields = append(fields, ir.I64("vn_hash"), ir.I64("vn_next"))
	fields = append(fields, ir.I64("vn_atime"), ir.I64("vn_mtime"))
	// Mount-point reference count: written by every CPU on a few shared
	// mount instances (the minor false-sharing hazard).
	fields = append(fields, ir.I64("vn_refcnt"))
	// Per-instance write fields (owner-only).
	fields = append(fields, ir.I64("vn_wcount"), ir.I64("vn_dirty"))
	// Lock.
	fields = append(fields, ir.I64("vn_lock"))
	// Cold tail: 24 fields.
	for i := 0; i < 12; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("vn_c64_%02d", i)))
	}
	for i := 0; i < 12; i++ {
		fields = append(fields, ir.I32(fmt.Sprintf("vn_c32_%02d", i)))
	}
	st := ir.NewStruct("vnode", fields...)

	var names []string
	// Line 0: hot reads + refcnt (mistake: the shared-written refcount in
	// the read-mostly line) + the hash-chain pair + timestamps + fill.
	names = append(names, hot...)
	names = append(names, "vn_refcnt", "vn_hash", "vn_next", "vn_atime", "vn_mtime")
	for i := 0; i < 3; i++ {
		names = append(names, fmt.Sprintf("vn_c64_%02d", i))
	}
	// Line 1: per-instance write fields, the lock, and the cold tail.
	names = append(names, "vn_wcount", "vn_dirty", "vn_lock")
	for i := 3; i < 12; i++ {
		names = append(names, fmt.Sprintf("vn_c64_%02d", i))
	}
	for i := 0; i < 12; i++ {
		names = append(names, fmt.Sprintf("vn_c32_%02d", i))
	}
	return &KernelStruct{Label: "B", Type: st, BaselineOrder: orderOf(st, names...), ArenaCount: 1024}
}

// StructC synthesizes struct C: a memory-object record of 28 fields with a
// clean baseline; the automatic layout only finds minor locality headroom.
func StructC() *KernelStruct {
	var fields []ir.Field
	for i := 0; i < 4; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("mo_h%d", i)))
	}
	fields = append(fields, ir.I64("mo_base"), ir.I64("mo_len"), ir.I64("mo_prot"))
	fields = append(fields, ir.I64("mo_owner"), ir.I64("mo_gen"))
	for i := 0; i < 10; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("mo_c64_%02d", i)))
	}
	for i := 0; i < 9; i++ {
		fields = append(fields, ir.I32(fmt.Sprintf("mo_c32_%02d", i)))
	}
	st := ir.NewStruct("memobj", fields...)

	var names []string
	// Line 0: the fault-path walk group, except mo_prot, which the
	// baseline strands on line 1 — the small locality headroom the tool
	// finds.
	for i := 0; i < 4; i++ {
		names = append(names, fmt.Sprintf("mo_h%d", i))
	}
	names = append(names, "mo_base", "mo_len", "mo_owner", "mo_gen")
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("mo_c64_%02d", i))
	}
	names = append(names, "mo_prot", "mo_c64_08", "mo_c64_09")
	for i := 0; i < 9; i++ {
		names = append(names, fmt.Sprintf("mo_c32_%02d", i))
	}
	return &KernelStruct{Label: "C", Type: st, BaselineOrder: orderOf(st, names...), ArenaCount: 1024}
}

// StructD synthesizes struct D: a per-CPU scheduler-queue record of 25
// fields. Its baseline is nearly optimal; the one residual issue is
// rq_steal — a flag remote CPUs set when they steal work — sharing the line
// with the owner's tick-path fields, which costs a little on large
// machines.
func StructD() *KernelStruct {
	var fields []ir.Field
	for i := 0; i < 6; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("rq_h%d", i)))
	}
	fields = append(fields, ir.I64("rq_clock"), ir.I64("rq_load"), ir.I64("rq_steal"))
	for i := 0; i < 10; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("rq_c64_%02d", i)))
	}
	for i := 0; i < 6; i++ {
		fields = append(fields, ir.I32(fmt.Sprintf("rq_c32_%02d", i)))
	}
	st := ir.NewStruct("runq", fields...)

	var names []string
	for i := 0; i < 6; i++ {
		names = append(names, fmt.Sprintf("rq_h%d", i))
	}
	names = append(names, "rq_clock", "rq_load", "rq_steal")
	for i := 0; i < 10; i++ {
		names = append(names, fmt.Sprintf("rq_c64_%02d", i))
	}
	for i := 0; i < 6; i++ {
		names = append(names, fmt.Sprintf("rq_c32_%02d", i))
	}
	return &KernelStruct{Label: "D", Type: st, BaselineOrder: orderOf(st, names...), ArenaCount: 512}
}

// StructE synthesizes struct E: a buffer-header record of 32 fields with a
// mildly shuffled baseline (its affinity group interleaves with cold
// fields), so the automatic layout finds a small locality win.
func StructE() *KernelStruct {
	var fields []ir.Field
	for i := 0; i < 5; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("bh_h%d", i)))
	}
	fields = append(fields, ir.I64("bh_blkno"), ir.I64("bh_dev"), ir.I64("bh_qstate"))
	for i := 0; i < 16; i++ {
		fields = append(fields, ir.I64(fmt.Sprintf("bh_c64_%02d", i)))
	}
	for i := 0; i < 8; i++ {
		fields = append(fields, ir.I32(fmt.Sprintf("bh_c32_%02d", i)))
	}
	st := ir.NewStruct("bufhdr", fields...)

	var names []string
	// Line 0: the walk group minus bh_h4, which the baseline strands on
	// line 1 — struct E's small locality headroom.
	names = append(names, "bh_h0", "bh_h1", "bh_h2", "bh_h3", "bh_blkno")
	for i := 0; i < 11; i++ {
		names = append(names, fmt.Sprintf("bh_c64_%02d", i))
	}
	names = append(names, "bh_h4", "bh_dev", "bh_qstate")
	for i := 11; i < 16; i++ {
		names = append(names, fmt.Sprintf("bh_c64_%02d", i))
	}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("bh_c32_%02d", i))
	}
	return &KernelStruct{Label: "E", Type: st, BaselineOrder: orderOf(st, names...), ArenaCount: 1024}
}

// AllStructs returns A..E in order.
func AllStructs() []*KernelStruct {
	return []*KernelStruct{StructA(), StructB(), StructC(), StructD(), StructE()}
}
