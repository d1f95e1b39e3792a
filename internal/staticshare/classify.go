// classify.go holds the interprocedural propagations and the sharing
// classification built on them.
//
// The propagations (thread reachability and entry frequency) visit each
// procedure once, in the callers-first order ir.Program.CallOrder fixes
// at Finalize.
//
// classify pairs every two field-touching instructions of a struct. The
// thread/lock/instance verdict of a pair depends only on the two
// accesses' conflict keys, so it is computed once per key pair and
// looked up for every other access pair with the same keys; the weight
// still accumulates per access pair. Per-struct work fans out over
// internal/parallel with gather-by-index, so results are byte-identical
// at any -j. The un-memoized walk survives in test code as the
// differential oracle: both feed the order-canonical aggregator pairAgg,
// and the differential tests pin their PairInfos — classes, certainty,
// evidence indices and float Weights — as bit-identical.
package staticshare

import (
	"fmt"
	"sort"
	"strings"

	"structlayout/internal/ir"
	"structlayout/internal/locks"
	"structlayout/internal/parallel"
)

// computeReach propagates thread sets down the call order: reach[proc]
// becomes the sorted set of thread indices whose execution can enter
// proc. Callers come first, so a procedure's inflow is complete when the
// walk reaches it.
func (r *Result) computeReach() {
	inflow := make(map[string]map[int]bool)
	add := func(proc string, ti int) {
		if inflow[proc] == nil {
			inflow[proc] = make(map[int]bool)
		}
		inflow[proc][ti] = true
	}
	for ti, t := range r.Threads {
		add(t.Proc, ti)
	}
	for _, pr := range r.Prog.CallOrder() {
		in := inflow[pr.Name]
		if len(in) == 0 {
			continue
		}
		sorted := make([]int, 0, len(in))
		for ti := range in {
			sorted = append(sorted, ti)
		}
		sort.Ints(sorted)
		r.reach[pr.Name] = sorted
		for _, b := range pr.Blocks {
			for _, c := range b.Instrs {
				if c.Op == ir.OpCall {
					for _, ti := range sorted {
						add(c.Callee, ti)
					}
				}
			}
		}
	}
}

// computeFreq estimates static execution frequencies. It returns each
// block's frequency per single entry of its procedure (loop trip counts ×
// branch probabilities) and fills procFreq with the interprocedural entry
// frequency: thread iteration counts propagated through call sites in
// call order, callers before callees.
func (r *Result) computeFreq() map[ir.BlockID]float64 {
	local := make(map[ir.BlockID]float64)
	for _, pr := range r.Prog.Procs {
		walkFreq(pr.Tree, 1, local)
	}
	// Entry frequencies from the thread declarations.
	for _, t := range r.Threads {
		iters := t.Iters
		if iters <= 0 {
			iters = 1
		}
		r.procFreq[t.Proc] += float64(iters)
	}
	for _, pr := range r.Prog.CallOrder() {
		f := r.procFreq[pr.Name]
		if f == 0 {
			continue
		}
		for _, b := range pr.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					r.procFreq[in.Callee] += f * local[b.Global]
				}
			}
		}
	}
	return local
}

// conflictKey is everything the pairwise verdict reads of an access:
// conflictVerdict (and lockedButShared) consult only the instance
// expression, the reaching-thread set, the held-lock set and the
// happens-before segments of the access's block, so two accesses of one
// struct with equal conflictKeys are interchangeable in any verdict.
// threads, held and segs are canonical encodings so the struct is
// comparable and usable as a map key; segs is "" on programs without
// sync statements. collectAccesses numbers the distinct keys, and each
// Access carries its key's number.
type conflictKey struct {
	inst    ir.InstExpr
	threads string
	held    string
	segs    string
}

func threadsKey(ts []int) string {
	if len(ts) == 0 {
		return ""
	}
	var b strings.Builder
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	return b.String()
}

// heldKeyEnc canonically encodes a definitely-held lock set: entries
// rendered unambiguously and sorted, so order within the set does not
// split keys.
func heldKeyEnc(held []locks.Key) string {
	if len(held) == 0 {
		return ""
	}
	parts := make([]string, len(held))
	for i, k := range held {
		parts[i] = fmt.Sprintf("%s\x00%d\x00%d\x00%d", k.Struct, k.Field, k.Inst.Kind, k.Inst.Index)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// keyPair is the verdict-memo key of two accesses: their conflict-key
// numbers, smaller first (swapping the two accesses changes nothing a
// caller reads of either verdict).
func keyPair(a1, a2 *Access) [2]int {
	if a1.key > a2.key {
		return [2]int{a2.key, a1.key}
	}
	return [2]int{a1.key, a2.key}
}

// classify fills Pairs: per struct, every pair of field-touching
// instructions on distinct fields is classified and folded into its
// field pair's aggregate. Structs fan out over internal/parallel.
func (r *Result) classify() {
	names := make([]string, 0, len(r.byStruct))
	for name := range r.byStruct {
		names = append(names, name)
	}
	sort.Strings(names)
	results, _ := parallel.Map(len(names), func(i int) (map[[2]int]PairInfo, error) {
		return r.classifyStruct(r.byStruct[names[i]]), nil
	})
	for i, pairs := range results {
		if len(pairs) > 0 {
			r.Pairs[names[i]] = pairs
		}
	}
}

// classifyStruct walks every access pair of one struct (idxs index
// Accesses, ascending), computing conflictVerdict once per conflict-key
// pair.
func (r *Result) classifyStruct(idxs []int) map[[2]int]PairInfo {
	type verdictVal struct {
		ov       overlapKind
		excluded bool
	}
	verdicts := make(map[[2]int]verdictVal)
	aggs := make(map[[2]int]*pairAgg)
	for x := 0; x < len(idxs); x++ {
		a1 := &r.Accesses[idxs[x]]
		for y := x + 1; y < len(idxs); y++ {
			a2 := &r.Accesses[idxs[y]]
			if a1.Field == a2.Field {
				continue // true sharing, not a layout decision
			}
			mk := keyPair(a1, a2)
			v, ok := verdicts[mk]
			if !ok {
				v.ov, v.excluded = r.conflictVerdict(a1, a2)
				verdicts[mk] = v
			}
			if v.ov == ovNo && !v.excluded {
				continue
			}
			class, certain := classOf(v.ov, a1.Write || a2.Write)
			key := pairKey(a1.Field, a2.Field)
			agg := aggs[key]
			if agg == nil {
				agg = &pairAgg{}
				aggs[key] = agg
			}
			agg.addPair(class, certain, min(a1.Freq, a2.Freq), idxs[x], idxs[y])
		}
	}
	if len(aggs) == 0 {
		return nil
	}
	pairs := make(map[[2]int]PairInfo, len(aggs))
	for k, agg := range aggs {
		pairs[k] = agg.finalize()
	}
	return pairs
}

// classOf maps a pair verdict onto the class lattice. The caller
// guarantees ov != ovNo || excluded.
func classOf(ov overlapKind, anyWrite bool) (PairClass, bool) {
	switch {
	case ov != ovNo && anyWrite:
		return WriteShared, ov == ovMust
	case ov != ovNo:
		return ReadShared, false
	default:
		return LockSerialized, false
	}
}

// pairAgg accumulates the verdicts for one field pair in a form
// independent of enumeration order: classes fold by max, certainty by
// or, evidence by lexicographic minimum, and weights are kept as
// min-frequency histograms per class so the final sum associates in one
// canonical (value-ascending) order.
type pairAgg struct {
	class     PairClass
	certain   bool
	hist      [WriteShared + 1]map[float64]int64
	ev        [WriteShared + 1][2]int
	evSet     [WriteShared + 1]bool
	evCertain [2]int
	evCertSet bool
}

// addPair records one access pair: w is min(freq1, freq2), (a1, a2) the
// pair's Accesses indices.
func (g *pairAgg) addPair(class PairClass, certain bool, w float64, a1, a2 int) {
	if class > g.class {
		g.class = class
	}
	if certain {
		g.certain = true
		if !g.evCertSet || lessPair(a1, a2, g.evCertain) {
			g.evCertain = [2]int{a1, a2}
			g.evCertSet = true
		}
	}
	if !g.evSet[class] || lessPair(a1, a2, g.ev[class]) {
		g.ev[class] = [2]int{a1, a2}
		g.evSet[class] = true
	}
	h := g.hist[class]
	if h == nil {
		h = make(map[float64]int64)
		g.hist[class] = h
	}
	h[w]++
}

func lessPair(a1, a2 int, than [2]int) bool {
	return a1 < than[0] || (a1 == than[0] && a2 < than[1])
}

// finalize folds the aggregate into the published PairInfo. Weight sums
// the final class's histogram in ascending value order. Evidence is the
// smallest certainly-write-shared pair when the verdict is certain, else
// the smallest pair of the final class.
func (g *pairAgg) finalize() PairInfo {
	info := PairInfo{Class: g.class, Certain: g.certain, Weight: histWeight(g.hist[g.class])}
	if g.class == WriteShared && g.certain {
		info.A1, info.A2 = g.evCertain[0], g.evCertain[1]
	} else {
		info.A1, info.A2 = g.ev[g.class][0], g.ev[g.class][1]
	}
	return info
}

// histWeight sums value·count over the histogram in ascending value
// order — one canonical float association.
func histWeight(h map[float64]int64) float64 {
	vals := make([]float64, 0, len(h))
	for v := range h {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	var w float64
	for _, v := range vals {
		w += v * float64(h[v])
	}
	return w
}
