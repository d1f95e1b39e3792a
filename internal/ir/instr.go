package ir

import "fmt"

// InstKind selects how a field access resolves to a concrete struct
// instance at run time. The analysis side deliberately cannot see instance
// identity — the paper notes (§3.2) that CodeConcurrency over-approximates
// false sharing precisely because it cannot distinguish instances — but the
// execution engine must know which instance each access touches.
type InstKind uint8

const (
	// InstShared resolves to a fixed instance index within the struct's
	// arena: a globally shared object such as a kernel-wide table entry.
	InstShared InstKind = iota
	// InstPerCPU resolves to the instance whose index equals the executing
	// thread's ID (per-CPU data, the classic false-sharing-free pattern —
	// unless the layout packs several logical objects into one line).
	InstPerCPU
	// InstParam resolves to the executing thread's parameter #Index: the
	// workload driver assigns parameter vectors to threads, modelling
	// processes that each work on their own file/proc/vnode object.
	InstParam
	// InstLoopVar resolves to (loop induction variable of the innermost
	// enclosing loop) modulo the arena size: an array sweep over all
	// instances, the Figure 1 pattern from the paper.
	InstLoopVar
)

// InstExpr names the struct instance an access touches.
type InstExpr struct {
	Kind  InstKind
	Index int // instance index (InstShared) or parameter slot (InstParam)
}

// Shared selects the fixed shared instance i.
func Shared(i int) InstExpr { return InstExpr{Kind: InstShared, Index: i} }

// PerCPU selects the executing thread's own instance.
func PerCPU() InstExpr { return InstExpr{Kind: InstPerCPU} }

// Param selects the instance named by the thread's parameter slot k.
func Param(k int) InstExpr { return InstExpr{Kind: InstParam, Index: k} }

// LoopVar selects the instance indexed by the innermost loop's induction
// variable (modulo arena size).
func LoopVar() InstExpr { return InstExpr{Kind: InstLoopVar} }

// String renders the instance expression.
func (e InstExpr) String() string {
	switch e.Kind {
	case InstShared:
		return fmt.Sprintf("shared[%d]", e.Index)
	case InstPerCPU:
		return "percpu"
	case InstParam:
		return fmt.Sprintf("param[%d]", e.Index)
	case InstLoopVar:
		return "loopvar"
	default:
		return "?"
	}
}

// MemPattern describes how a region access computes its address.
type MemPattern uint8

const (
	// MemSeq strides sequentially through the region (streaming sweep);
	// address advances by Stride bytes per executed access and wraps.
	MemSeq MemPattern = iota
	// MemFixed always touches the same offset.
	MemFixed
	// MemRand touches a pseudo-random (seeded, deterministic) offset.
	MemRand
)

// Opcode enumerates executable instructions. Each Builder statement other
// than Loop and IfElse emits exactly one instruction.
type Opcode uint8

const (
	// OpField reads or writes a struct field.
	OpField Opcode = iota
	// OpMem reads or writes a memory region.
	OpMem
	// OpCompute burns a fixed number of cycles without memory traffic.
	OpCompute
	// OpLock acquires a spinlock stored in a struct field. Acquisition is a
	// read-modify-write of the field (so it participates in coherence and in
	// false sharing with neighbouring fields) plus blocking semantics.
	OpLock
	// OpUnlock releases a spinlock (a write to the field).
	OpUnlock
	// OpCall transfers to another procedure and returns.
	OpCall
	// OpSpawn forks a child task running another procedure. The spawn is a
	// static fork/join skeleton edge (well-structured futures): the static
	// analysis derives happens-before from it, while the interpreter treats
	// it as a no-op (spawned tasks are modeled as declared threads, not
	// dynamically created ones).
	OpSpawn
	// OpJoin waits for a previously spawned child task, creating the
	// matching happens-before edge. A no-op for the interpreter.
	OpJoin
	// OpSend is a rendezvous send on a named synchronization channel.
	// A no-op for the interpreter; a happens-before edge source for the
	// static analysis when it pairs with a unique OpRecv.
	OpSend
	// OpRecv is the matching rendezvous receive.
	OpRecv
)

// Instr is one executable instruction inside a basic block.
type Instr struct {
	Op Opcode

	// OpField, OpLock, OpUnlock:
	Struct *StructType
	Field  int
	Acc    AccessKind
	Inst   InstExpr

	// OpMem:
	Region  string
	Pattern MemPattern
	Stride  int64
	Offset  int64

	// OpCompute:
	Cycles int64

	// OpCall (also OpSpawn's target procedure):
	Callee string

	// OpSpawn, OpJoin:
	Handle string

	// OpSpawn: the CPU the child task runs on and its parameter vector.
	SpawnCPU    int
	SpawnParams []int

	// OpSend, OpRecv:
	Chan string
}

// String renders a compact instruction mnemonic.
func (in Instr) String() string {
	switch in.Op {
	case OpField:
		return fmt.Sprintf("%s %s.%s %s", in.Acc, in.Struct.Name, in.Struct.Fields[in.Field].Name, in.Inst)
	case OpMem:
		return fmt.Sprintf("%s mem %s", in.Acc, in.Region)
	case OpCompute:
		return fmt.Sprintf("compute %d", in.Cycles)
	case OpLock:
		return fmt.Sprintf("lock %s.%s %s", in.Struct.Name, in.Struct.Fields[in.Field].Name, in.Inst)
	case OpUnlock:
		return fmt.Sprintf("unlock %s.%s %s", in.Struct.Name, in.Struct.Fields[in.Field].Name, in.Inst)
	case OpCall:
		return "call " + in.Callee
	case OpSpawn:
		s := fmt.Sprintf("spawn %s cpu=%d %s", in.Handle, in.SpawnCPU, in.Callee)
		if len(in.SpawnParams) > 0 {
			s += fmt.Sprintf(" params=%v", in.SpawnParams)
		}
		return s
	case OpJoin:
		return "join " + in.Handle
	case OpSend:
		return "send " + in.Chan
	case OpRecv:
		return "recv " + in.Chan
	default:
		return "?"
	}
}
