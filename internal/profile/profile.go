// Package profile holds execution profiles of IR programs: basic-block
// execution counts and loop trip statistics. It corresponds to the paper's
// PBO ("profile-based optimization") feedback file (§4): the instrumented
// collect run produces precise edge/block counts which the layout analysis
// consumes as CycleGain frequencies.
//
// Because each basic block's instruction list is static, per-field access
// counts are derived exactly from block counts (accesses per block execution
// × block executions); they are not stored separately.
//
// Profiles can also be synthesized statically (StaticEstimate) from loop
// trip counts and branch probabilities, matching the compiler's behaviour
// when no feedback file is available.
package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"structlayout/internal/ir"
)

// Profile records execution counts for one program. Counts are float64:
// measured profiles hold integral values, static estimates hold expected
// (fractional) frequencies.
type Profile struct {
	// ProgramName ties the profile to the program that produced it.
	ProgramName string `json:"program"`
	// Blocks holds execution counts indexed by global ir.BlockID.
	Blocks []float64 `json:"blocks"`
	// LoopIters holds total body iterations indexed by global loop ID.
	LoopIters []float64 `json:"loop_iters"`
	// LoopEntries holds loop entry counts indexed by global loop ID.
	LoopEntries []float64 `json:"loop_entries"`
}

// New returns an empty profile shaped for the finalized program.
func New(p *ir.Program) *Profile {
	return &Profile{
		ProgramName: p.Name,
		Blocks:      make([]float64, p.NumBlocks()),
		LoopIters:   make([]float64, p.NumLoops()),
		LoopEntries: make([]float64, p.NumLoops()),
	}
}

// IncrBlock adds one execution of block id.
func (pf *Profile) IncrBlock(id ir.BlockID) { pf.Blocks[id]++ }

// AddLoop records one entry of the loop with the given body iterations.
func (pf *Profile) AddLoop(global int, iters int64) {
	pf.LoopEntries[global]++
	pf.LoopIters[global] += float64(iters)
}

// BlockCount returns the execution count of b.
func (pf *Profile) BlockCount(b *ir.BasicBlock) float64 { return pf.Blocks[b.Global] }

// LoopEC returns the paper's ExecutionCount(L): the number of times the
// loop body executed, aggregated over all entries.
func (pf *Profile) LoopEC(l *ir.Loop) float64 { return pf.LoopIters[l.Global] }

// FieldCounts aggregates read/write counts per (struct, field) over a set
// of blocks, weighting each block's static accesses by its execution count.
// Lock and unlock operations count as writes to their field.
type FieldCounts map[FieldKey]Counts

// FieldKey identifies a field of a named struct.
type FieldKey struct {
	Struct string
	Field  int
}

// Counts are dynamic read/write totals.
type Counts struct {
	Reads  float64
	Writes float64
}

// Total returns reads + writes.
func (c Counts) Total() float64 { return c.Reads + c.Writes }

// AccumulateBlock adds block b's per-execution field accesses, scaled by its
// execution count, into fc.
func (pf *Profile) AccumulateBlock(fc FieldCounts, b *ir.BasicBlock) {
	n := pf.BlockCount(b)
	if n == 0 {
		return
	}
	for _, in := range b.FieldInstrs() {
		k := FieldKey{Struct: in.Struct.Name, Field: in.Field}
		c := fc[k]
		if in.Acc == ir.Read {
			c.Reads += n
		} else {
			c.Writes += n
		}
		fc[k] = c
	}
}

// ProgramFieldCounts returns dynamic field counts over the whole program:
// the paper's "hotness" input (a field is hotter if referenced more often).
func ProgramFieldCounts(p *ir.Program, pf *Profile) FieldCounts {
	fc := make(FieldCounts)
	for _, b := range p.Blocks() {
		pf.AccumulateBlock(fc, b)
	}
	return fc
}

// StaticEstimate synthesizes a profile from the program structure alone:
// each procedure is assumed to be called once per call site (entry
// procedures once overall), loops multiply by their trip count, branches by
// their probability. This mirrors a compiler's static frequency estimator
// and lets the tool run without a collect phase. p must be finalized.
func StaticEstimate(p *ir.Program, entries []string) (*Profile, error) {
	if p.CallOrder() == nil {
		return nil, fmt.Errorf("profile: program %s not finalized", p.Name)
	}
	pf := New(p)
	// Expected call multiplicity per procedure: entries get 1; callees get
	// the sum over call sites of the caller's site frequency. Callers come
	// before their callees in CallOrder, so each procedure's weight is
	// complete when the walk reaches it.
	procWeight := make(map[string]float64, len(p.Procs))
	for _, e := range entries {
		if p.Proc(e) == nil {
			return nil, fmt.Errorf("profile: unknown entry procedure %q", e)
		}
		procWeight[e] += 1
	}
	for _, pr := range p.CallOrder() {
		w := procWeight[pr.Name]
		if w == 0 {
			continue
		}
		addCallWeights(pr.Tree, w, procWeight)
		walkStatic(pr.Tree, w, pf)
	}
	return pf, nil
}

// addCallWeights accumulates callee weights for calls under nodes executed
// with frequency w.
func addCallWeights(nodes []ir.ExecNode, w float64, out map[string]float64) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			for _, in := range n.Block.Instrs {
				if in.Op == ir.OpCall {
					out[in.Callee] += w
				}
			}
		case *ir.ExecLoop:
			addCallWeights(n.Body, w*float64(n.Count), out)
		case *ir.ExecIf:
			addCallWeights(n.Then, w*n.Prob, out)
			addCallWeights(n.Else, w*(1-n.Prob), out)
		}
	}
}

// walkStatic attributes expected block counts for one procedure executed w
// times.
func walkStatic(nodes []ir.ExecNode, w float64, pf *Profile) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			pf.Blocks[n.Block.Global] += w
		case *ir.ExecLoop:
			// Header tests count+1 times per entry.
			pf.Blocks[n.Loop.Header.Global] += w * float64(n.Count+1)
			pf.LoopEntries[n.Loop.Global] += w
			pf.LoopIters[n.Loop.Global] += w * float64(n.Count)
			walkStatic(n.Body, w*float64(n.Count), pf)
		case *ir.ExecIf:
			pf.Blocks[n.Cond.Global] += w
			pf.Blocks[n.Join.Global] += w
			walkStatic(n.Then, w*n.Prob, pf)
			walkStatic(n.Else, w*(1-n.Prob), pf)
		}
	}
}

// WriteJSON serializes the profile.
func (pf *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pf)
}

// ReadJSON deserializes a profile and checks it against the program shape.
func ReadJSON(r io.Reader, p *ir.Program) (*Profile, error) {
	var pf Profile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if pf.ProgramName != p.Name {
		return nil, fmt.Errorf("profile: for program %q, want %q", pf.ProgramName, p.Name)
	}
	if len(pf.Blocks) != p.NumBlocks() || len(pf.LoopIters) != p.NumLoops() || len(pf.LoopEntries) != p.NumLoops() {
		return nil, fmt.Errorf("profile: shape mismatch with program %q", p.Name)
	}
	return &pf, nil
}
