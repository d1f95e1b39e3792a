package ir

import "fmt"

// BlockID is a program-global basic-block identifier, assigned at Finalize.
// Profiles, samples and concurrency maps key on BlockID.
type BlockID int32

// BasicBlock is a maximal straight-line run of instructions, or one of the
// synthetic control blocks (procedure entry and exit, loop headers,
// branch and join points) produced by lowering. Every block carries
// exactly one synthetic source line; the field-mapping file and the
// concurrency map both key on that line, mirroring the paper's
// IP→source→block correlation (§4.3).
type BasicBlock struct {
	// Index is the block's position within its procedure.
	Index int
	// Global is the program-wide ID, valid after Program.Finalize.
	Global BlockID
	// Proc is the owning procedure.
	Proc *Procedure
	// Instrs are the executable instructions; empty for synthetic blocks.
	Instrs []Instr
	// Loop is the innermost loop containing this block, nil if none.
	Loop *Loop
	// Line is the block's synthetic source line.
	Line SourceLine
	// Synthetic marks control-only blocks (headers, conditions, joins).
	Synthetic bool

	fieldInstrs []Instr // Instrs' field-touching subset, set by Program.Finalize
}

// Name renders proc#index for diagnostics.
func (b *BasicBlock) Name() string { return fmt.Sprintf("%s#%d", b.Proc.Name, b.Index) }

// FieldInstrs returns the field-touching instructions (OpField, OpLock,
// OpUnlock) in the block, in order. Lock operations count as accesses to
// their field: the paper explicitly lists "co-location of lock with the
// accessed data" as a layout concern, and a lock word is just a hot,
// write-shared field. Program.Finalize computes the list once; the slice
// is shared, so callers must not modify it.
func (b *BasicBlock) FieldInstrs() []Instr { return b.fieldInstrs }

// fieldInstrsOf filters instrs to its field-touching instructions.
func fieldInstrsOf(instrs []Instr) []Instr {
	var out []Instr
	for _, in := range instrs {
		switch in.Op {
		case OpField, OpLock, OpUnlock:
			out = append(out, in)
		}
	}
	return out
}

// Loop is the lowering of one LoopStmt.
type Loop struct {
	// Index is the loop's position within its procedure (preorder).
	Index int
	// Global is the program-wide loop ID, valid after Program.Finalize.
	Global int
	// Proc is the owning procedure.
	Proc *Procedure
	// Header is the synthetic header block (the trip-count test).
	Header *BasicBlock
	// Blocks are the blocks whose innermost containing loop is this loop,
	// header first (blocks of nested loops live in the nested loop's
	// Blocks).
	Blocks []*BasicBlock
	// TripCount is the static per-entry iteration count.
	TripCount int64
}

// Name renders proc$index.
func (l *Loop) Name() string { return fmt.Sprintf("%s$L%d", l.Proc.Name, l.Index) }

// ExecNode is a node of the structured execution tree the interpreter
// walks. Lowering produces one tree per procedure whose nodes reference
// the procedure's blocks, so interpretation and block-based analysis agree
// exactly on block execution counts.
type ExecNode interface{ execNode() }

// ExecBlock executes one basic block's instructions.
type ExecBlock struct{ Block *BasicBlock }

// ExecLoop executes Body Count times. Header is counted once per iteration
// test (Count+1 times per entry).
type ExecLoop struct {
	Loop  *Loop
	Count int64
	Body  []ExecNode
}

// ExecIf draws against Prob; Cond is counted every execution, Join once per
// execution after the taken arm.
type ExecIf struct {
	Prob       float64
	Cond, Join *BasicBlock
	Then, Else []ExecNode
}

func (*ExecBlock) execNode() {}
func (*ExecLoop) execNode()  {}
func (*ExecIf) execNode()    {}

// Procedure is a single function: a structured body plus, after lowering,
// its blocks, loop nest and execution tree.
type Procedure struct {
	Name string
	// Body is the structured AST the builder produced.
	Body []Stmt
	// Blocks are the lowered blocks in creation order, which is the order
	// a preorder walk of Tree meets them (an ExecLoop's header before its
	// body, an ExecIf's Cond before its arms and Join after them): the
	// synthetic entry block first, the synthetic exit block last.
	Blocks []*BasicBlock
	// Loops lists all loops preorder (outer before inner).
	Loops []*Loop
	// Tree is the structured execution tree for the interpreter.
	Tree []ExecNode

	program *Program
}
