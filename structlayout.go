// Package structlayout is a reproduction of "Structure Layout Optimization
// for Multithreaded Programs" (Raman, Hundt, Mannarswamy — CGO 2007): a
// semi-automatic tool that lays out the fields of a record type to improve
// spatial locality and reduce false sharing simultaneously, together with
// every substrate the paper's pipeline needs — a compiler IR with affinity
// analysis, a synchronized-sampling PMU model, the CodeConcurrency metric,
// a MESI cache-coherence simulator with the paper's machine topologies, and
// the SDET-like evaluation workload.
//
// This file re-exports the public surface from the internal packages so
// downstream users have a single import:
//
//	import "structlayout"
//
//	prog := structlayout.NewProgram("app")
//	s := structlayout.NewStruct("conn", structlayout.I64("a"), structlayout.I64("b"))
//	...
//	analysis, _ := structlayout.NewAnalysis(prog, prof, trace, structlayout.ToolOptions{})
//	suggestion, _ := analysis.Suggest("conn", nil)
//
// See examples/ for complete programs and DESIGN.md for the system map.
package structlayout

import (
	"structlayout/internal/concurrency"
	"structlayout/internal/core"
	"structlayout/internal/exec"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// IR surface: programs, record types, the builder DSL.
type (
	// Program is a whole multithreaded program under analysis.
	Program = ir.Program
	// StructType is a record type whose field order the tool may permute.
	StructType = ir.StructType
	// Field is one member of a record type.
	Field = ir.Field
	// Builder constructs procedure bodies fluently.
	Builder = ir.Builder
	// InstExpr selects the struct instance an access touches.
	InstExpr = ir.InstExpr
)

// NewProgram returns an empty program.
func NewProgram(name string) *Program { return ir.NewProgram(name) }

// NewStruct declares a record type.
func NewStruct(name string, fields ...Field) *StructType { return ir.NewStruct(name, fields...) }

// Field constructors (C scalar widths).
var (
	I8  = ir.I8
	I16 = ir.I16
	I32 = ir.I32
	I64 = ir.I64
	Ptr = ir.Ptr
	Pad = ir.Pad
	Arr = ir.Arr
)

// Instance selectors.
var (
	Shared  = ir.Shared
	PerCPU  = ir.PerCPU
	Param   = ir.Param
	LoopVar = ir.LoopVar
)

// Layout surface.
type (
	// Layout assigns every field a byte offset.
	Layout = layout.Layout
)

// Layout producers.
var (
	// OriginalLayout returns the declaration-order layout.
	OriginalLayout = layout.Original
	// SortByHotness is the naive heuristic the paper evaluates against.
	SortByHotness = layout.SortByHotness
)

// Machine and simulator surface.
type (
	// Topology is a simulated multiprocessor.
	Topology = machine.Topology
	// Runner executes a program on a simulated machine.
	Runner = exec.Runner
	// RunConfig parameterizes a run.
	RunConfig = exec.Config
	// RunResult is everything a run produces.
	RunResult = exec.Result
	// SamplingConfig parameterizes PMU-style collection.
	SamplingConfig = sampling.Config
	// Profile is an execution profile.
	Profile = profile.Profile
	// Trace is a collected sample trace.
	Trace = sampling.Trace
	// ConcurrencyMap is the CodeConcurrency map.
	ConcurrencyMap = concurrency.Map
)

// Built-in topologies from the paper's evaluation.
var (
	Superdome128 = machine.Superdome128
	Way16        = machine.Way16
	Bus4         = machine.Bus4
	Uniprocessor = machine.Uniprocessor
)

// NewRunner builds an execution-engine runner.
func NewRunner(p *Program, cfg RunConfig) (*Runner, error) { return exec.NewRunner(p, cfg) }

// Tool surface.
type (
	// Analysis bundles collected data for the layout tool.
	Analysis = core.Analysis
	// ToolOptions configures the tool (k1/k2, line size, concurrency slice).
	ToolOptions = core.Options
	// Suggestion is the tool's output for one struct.
	Suggestion = core.Suggestion
)

// NewAnalysis assembles an analysis from collected data; trace may be nil
// for locality-only operation.
func NewAnalysis(p *Program, pf *Profile, trace *Trace, opts ToolOptions) (*Analysis, error) {
	return core.NewAnalysis(p, pf, trace, opts)
}
