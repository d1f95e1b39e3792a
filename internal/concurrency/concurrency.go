// Package concurrency implements the paper's CodeConcurrency metric (§3.2,
// §4.3): a sampled, lightweight estimate of which pieces of code execute at
// the same time on different processors.
//
// The execution is divided into fixed time intervals I. With F_I(P_k, B_i)
// the execution frequency of block B_i on processor P_k during I,
//
//	CC_I(B_i, B_j) = Σ_{P_m ≠ P_n} min(F_I(P_m, B_i), F_I(P_n, B_j))
//	CC(B_i, B_j)   = Σ_I CC_I(B_i, B_j)
//
// A high CC(B_i, B_j) means that whenever some processor executes B_i, some
// other processor is likely executing B_j at roughly the same time — the
// precondition for false sharing between fields those blocks access.
//
// The result is the Concurrency Map: block pairs (equivalently, source-line
// pairs via the one-line-per-block IR) to their CC value.
package concurrency

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"structlayout/internal/diag"
	"structlayout/internal/ir"
	"structlayout/internal/sampling"
)

// Pair is an unordered block pair; A <= B canonically.
type Pair struct {
	A, B ir.BlockID
}

// MakePair canonicalizes a block pair.
func MakePair(a, b ir.BlockID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Map is the Concurrency Map.
type Map struct {
	// CC holds CodeConcurrency per canonical block pair.
	CC map[Pair]float64
	// SliceCycles records the interval size used.
	SliceCycles int64
}

// Options controls the computation.
type Options struct {
	// SliceCycles is the interval length; the paper uses 1 ms, i.e. 1.2M
	// cycles at 1.2 GHz.
	SliceCycles int64
	// Relevant, when non-nil, restricts the computation to blocks for which
	// it returns true (typically: blocks accessing fields of structs under
	// study). This mirrors the paper's pipeline, which only correlates
	// lines that appear in the field mapping file.
	Relevant func(ir.BlockID) bool
	// Diag, when non-nil, receives data-quality observations (empty trace,
	// single-CPU trace that can never show concurrency, ...).
	Diag *diag.Log
}

// DefaultSliceCycles is 1 ms at the paper's 1.2 GHz clock.
const DefaultSliceCycles = 1_200_000

// Compute builds the Concurrency Map from a sampling trace.
func Compute(trace *sampling.Trace, opts Options) (*Map, error) {
	if opts.SliceCycles <= 0 {
		opts.SliceCycles = DefaultSliceCycles
	}
	if trace == nil {
		return nil, fmt.Errorf("concurrency: nil trace")
	}
	if len(trace.Samples) == 0 {
		opts.Diag.Add(diag.Warning, "concurrency", "empty-trace", "trace has no samples; concurrency map will be empty")
	}
	if trace.NumCPUs == 1 {
		opts.Diag.Add(diag.Warning, "concurrency", "single-cpu", "single-CPU trace can never show cross-processor concurrency")
	}
	m := &Map{CC: make(map[Pair]float64), SliceCycles: opts.SliceCycles}
	slices, err := trace.Slices(opts.SliceCycles)
	if err != nil {
		return nil, fmt.Errorf("concurrency: %w", err)
	}
	for _, slice := range slices {
		accumulateSlice(m, slice, opts.Relevant)
	}
	return m, nil
}

// blockCounts is a block's per-CPU sample counts within one slice.
type blockCounts struct {
	block ir.BlockID
	cpus  []int
	cnt   []float64
	// byCPU indexes cnt by CPU for the m == n diagonal correction.
	byCPU map[int]float64
	// sorted counts and prefix sums for the Σ min computation.
	sorted []float64
	prefix []float64
	total  float64
}

// accumulateSlice adds one interval's CC contributions.
func accumulateSlice(m *Map, sc sampling.SliceCounts, relevant func(ir.BlockID) bool) {
	// Gather per-block count vectors.
	perBlock := make(map[ir.BlockID]*blockCounts)
	for cpu, counts := range sc.ByCPU {
		for blk, n := range counts {
			if relevant != nil && !relevant(blk) {
				continue
			}
			bc := perBlock[blk]
			if bc == nil {
				bc = &blockCounts{block: blk}
				perBlock[blk] = bc
			}
			bc.cpus = append(bc.cpus, cpu)
			bc.cnt = append(bc.cnt, n)
		}
	}
	if len(perBlock) == 0 {
		return
	}
	blocks := make([]*blockCounts, 0, len(perBlock))
	for _, bc := range perBlock {
		bc.finish()
		blocks = append(blocks, bc)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].block < blocks[j].block })

	for i, bi := range blocks {
		for j := i; j < len(blocks); j++ {
			bj := blocks[j]
			v := sumMinPairs(bi, bj)
			if v > 0 {
				m.CC[MakePair(bi.block, bj.block)] += v
			}
		}
	}
}

// finish sorts counts, builds prefix sums and indexes counts by CPU.
func (bc *blockCounts) finish() {
	bc.sorted = append([]float64(nil), bc.cnt...)
	sort.Float64s(bc.sorted)
	bc.prefix = make([]float64, len(bc.sorted)+1)
	for i, v := range bc.sorted {
		bc.prefix[i+1] = bc.prefix[i] + v
		bc.total += v
	}
	bc.byCPU = make(map[int]float64, len(bc.cpus))
	for i, cpu := range bc.cpus {
		bc.byCPU[cpu] = bc.cnt[i]
	}
}

// sumMinAll returns Σ over all n of min(x, b_n) using b's sorted counts.
func (bc *blockCounts) sumMinAll(x float64) float64 {
	// Count of entries <= x.
	k := sort.SearchFloat64s(bc.sorted, x+1e-12) // entries strictly greater than x start at k
	return bc.prefix[k] + x*float64(len(bc.sorted)-k)
}

// sumMinPairs computes Σ_{P_m ≠ P_n} min(F(P_m, B_i), F(P_n, B_j)) over
// ordered processor pairs. The ordered sum is already symmetric in the two
// blocks (swapping i and j relabels m and n), so each unordered block pair
// is accumulated exactly once by the caller. The m == n diagonal — the same
// processor executing both blocks — is excluded: one CPU cannot falsely
// share with itself.
func sumMinPairs(bi, bj *blockCounts) float64 {
	var total float64
	// Σ over all ordered pairs (m, n), computed in O(|cnt| log |cnt|) via
	// bj's sorted counts and prefix sums.
	for _, a := range bi.cnt {
		total += bj.sumMinAll(a)
	}
	// Remove the m == n terms.
	for k, cpu := range bi.cpus {
		if other := bj.countFor(cpu); other > 0 {
			a := bi.cnt[k]
			if a < other {
				total -= a
			} else {
				total -= other
			}
		}
	}
	return total
}

// countFor returns the block's count on the given CPU (0 if absent). The
// index is built once in finish(); without it the m == n correction inside
// sumMinPairs degenerated to a linear scan per CPU, O(P²) per block pair
// on wide machines.
func (bc *blockCounts) countFor(cpu int) float64 { return bc.byCPU[cpu] }

// Value returns CC for a block pair.
func (m *Map) Value(a, b ir.BlockID) float64 { return m.CC[MakePair(a, b)] }

// TopPairs returns the k highest-CC pairs, ties broken by pair ordering.
func (m *Map) TopPairs(k int) []Pair {
	pairs := make([]Pair, 0, len(m.CC))
	for p := range m.CC {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		vi, vj := m.CC[pairs[i]], m.CC[pairs[j]]
		if vi != vj {
			return vi > vj
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}

// LineScores converts the map to source-line-pair scores for reports and
// for stability comparisons between collection machines (§4.3).
func (m *Map) LineScores(p *ir.Program) map[[2]ir.SourceLine]float64 {
	out := make(map[[2]ir.SourceLine]float64, len(m.CC))
	for pair, v := range m.CC {
		la := p.Block(pair.A).Line
		lb := p.Block(pair.B).Line
		if lb.Less(la) {
			la, lb = lb, la
		}
		// += rather than =: distinct block pairs can collapse onto one
		// source-line pair (two blocks on the same line), and their CC
		// mass must sum instead of the last pair winning.
		out[[2]ir.SourceLine{la, lb}] += v
	}
	return out
}

// WriteText serializes the concurrency map: "fileA:lineA fileB:lineB cc".
func (m *Map) WriteText(w io.Writer, p *ir.Program) error {
	bw := bufio.NewWriter(w)
	pairs := m.TopPairs(len(m.CC))
	for _, pair := range pairs {
		fmt.Fprintf(bw, "%s %s %.6g\n", p.Block(pair.A).Line, p.Block(pair.B).Line, m.CC[pair])
	}
	return bw.Flush()
}
