// summary.go is the summary-based classification path: instead of
// enumerating every pair of field-touching instructions and re-deriving
// the same thread/lock/instance verdict O(A²) times, each procedure gets
// one parameterized footprint summary — its accesses compressed into
// signature groups whose instance expressions keep thread-param slots
// symbolic and whose frequencies are per-entry — and the struct-level
// classification works on instantiated groups. The pairwise
// thread/lock/instance verdict depends only on the signature, so it is
// computed once per group pair instead of once per access pair, and
// per-struct classification fans out over internal/parallel.
//
// The exact per-access-pair walk this replaced survives in test code as
// the differential oracle. Both feed the same order-canonical
// aggregator, pairAgg, so their PairInfos — classes, certainty,
// evidence indices and float Weights — are bit-identical. The
// differential tests pin exactly that.
//
// The interprocedural propagations (thread reachability and entry
// frequency) visit each procedure once, in the callers-first order
// ir.Program.CallOrder fixes at Finalize.
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

// conflictKey is the part of an access signature the pairwise verdict
// depends on: conflictVerdict (and lockedButShared) consult only the
// instance expression, the reaching-thread set, the held-lock set and
// the happens-before segments of the access's block, so two accesses
// with equal conflictKeys are interchangeable in any verdict. threads,
// held and segs are canonical encodings so the struct is comparable
// and usable as a map key. segs is "" on programs without sync
// statements, so their grouping is unchanged from the pre-HB analysis.
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
// split groups.
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

// SummaryGroup is one signature group of a procedure summary: the
// subset of the procedure's field-touching instructions the classifier
// cannot distinguish (same field, same write-ness, same instance
// expression, same held-lock set). LocalFreq histograms the members'
// per-entry frequencies; instantiation scales it by the procedure's
// interprocedural entry frequency.
type SummaryGroup struct {
	Struct string
	Field  int
	Write  bool
	Inst   ir.InstExpr
	// MinAccess is the smallest Result.Accesses index in the group — the
	// canonical evidence representative.
	MinAccess int
	// LocalFreq maps per-entry frequency → member count.
	LocalFreq map[float64]int64

	heldEnc string
	segEnc  string
	rep     *Access
}

// ProcSummary is one procedure's parameterized footprint summary. The
// instance expressions keep thread-parameter slots symbolic and the
// frequencies are per-entry, so the summary is computed once per
// procedure and instantiated at the struct level with the procedure's
// reaching threads and entry frequency — call sites reuse it instead of
// re-descending into the callee.
type ProcSummary struct {
	Proc   string
	Groups []SummaryGroup
}

// summarize compresses the collected accesses into one summary per
// procedure. Accesses carry their final (already instantiated) facts;
// the summary keeps the per-entry frequency so instantiation recomputes
// pf·local with exactly the floats the exact path used.
func (r *Result) summarize(local map[ir.BlockID]float64) {
	r.summaries = make(map[string]*ProcSummary)
	type gkey struct {
		structName string
		field      int
		write      bool
		inst       ir.InstExpr
		held       string
		segs       string
	}
	index := make(map[string]map[gkey]int)
	for ai := range r.Accesses {
		a := &r.Accesses[ai]
		blk := r.Prog.Block(a.Block)
		if blk == nil || blk.Proc == nil {
			continue
		}
		ps := r.summaries[blk.Proc.Name]
		if ps == nil {
			ps = &ProcSummary{Proc: blk.Proc.Name}
			r.summaries[blk.Proc.Name] = ps
			index[blk.Proc.Name] = make(map[gkey]int)
		}
		k := gkey{a.Struct.Name, a.Field, a.Write, a.Inst, heldKeyEnc(a.Held), a.segKey}
		gi, ok := index[blk.Proc.Name][k]
		if !ok {
			gi = len(ps.Groups)
			index[blk.Proc.Name][k] = gi
			ps.Groups = append(ps.Groups, SummaryGroup{
				Struct:    a.Struct.Name,
				Field:     a.Field,
				Write:     a.Write,
				Inst:      a.Inst,
				MinAccess: ai,
				LocalFreq: make(map[float64]int64),
				heldEnc:   k.held,
				segEnc:    k.segs,
				rep:       a,
			})
		}
		ps.Groups[gi].LocalFreq[local[a.Block]]++
	}
}

// instGroup is a SummaryGroup instantiated with its procedure's reaching
// threads and entry frequency, merged across procedures that produced
// the same full signature.
type instGroup struct {
	field int
	write bool
	ck    conflictKey
	min   int
	freqs map[float64]int64
	rep   *Access
}

// classifySummary is the summary-based replacement for the exact
// pairwise walk: instantiate every procedure summary, merge groups with
// equal signatures, and classify per struct over group pairs — the
// verdict memoized per conflict-key pair, the min-frequency cross
// histograms computed in closed form. Per-struct work fans out over
// internal/parallel with gather-by-index, so results are byte-identical
// at any -j.
func (r *Result) classifySummary(local map[ir.BlockID]float64) {
	r.summarize(local)

	type fullSig struct {
		field int
		write bool
		ck    conflictKey
	}
	byStruct := make(map[string]map[fullSig]*instGroup)
	for _, pr := range r.Prog.Procs {
		ps := r.summaries[pr.Name]
		if ps == nil {
			continue
		}
		pf := r.procFreq[pr.Name]
		tk := threadsKey(r.reach[pr.Name])
		for gi := range ps.Groups {
			g := &ps.Groups[gi]
			sig := fullSig{g.Field, g.Write, conflictKey{g.Inst, tk, g.heldEnc, g.segEnc}}
			m := byStruct[g.Struct]
			if m == nil {
				m = make(map[fullSig]*instGroup)
				byStruct[g.Struct] = m
			}
			ig := m[sig]
			if ig == nil {
				ig = &instGroup{
					field: g.Field,
					write: g.Write,
					ck:    sig.ck,
					min:   g.MinAccess,
					freqs: make(map[float64]int64),
					rep:   g.rep,
				}
				m[sig] = ig
			} else if g.MinAccess < ig.min {
				ig.min = g.MinAccess
				ig.rep = g.rep
			}
			for v, c := range g.LocalFreq {
				ig.freqs[pf*v] += c
			}
		}
	}

	names := make([]string, 0, len(byStruct))
	for name := range byStruct {
		names = append(names, name)
	}
	sort.Strings(names)
	results, _ := parallel.Map(len(names), func(i int) (map[[2]int]PairInfo, error) {
		groups := make([]*instGroup, 0, len(byStruct[names[i]]))
		for _, g := range byStruct[names[i]] {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].min < groups[b].min })
		return r.classifyGroups(groups), nil
	})
	for i, pairs := range results {
		if len(pairs) > 0 {
			r.Pairs[names[i]] = pairs
		}
	}
}

// classifyGroups folds all cross-group verdicts of one struct into
// per-field-pair aggregates. groups must be ordered by MinAccess, so
// (g1.min, g2.min) is the lexicographically smallest evidence pair of
// the whole cross product.
func (r *Result) classifyGroups(groups []*instGroup) map[[2]int]PairInfo {
	type verdictVal struct {
		ov       overlapKind
		excluded bool
	}
	verdicts := make(map[[2]conflictKey]verdictVal)
	verdict := func(g1, g2 *instGroup) (overlapKind, bool) {
		k1, k2 := g1.ck, g2.ck
		if k2.less(k1) {
			k1, k2 = k2, k1
		}
		mk := [2]conflictKey{k1, k2}
		if v, ok := verdicts[mk]; ok {
			return v.ov, v.excluded
		}
		ov, excluded := r.conflictVerdict(g1.rep, g2.rep)
		verdicts[mk] = verdictVal{ov, excluded}
		return ov, excluded
	}
	aggs := make(map[[2]int]*pairAgg)
	for i := 0; i < len(groups); i++ {
		g1 := groups[i]
		for j := i + 1; j < len(groups); j++ {
			g2 := groups[j]
			if g1.field == g2.field {
				continue // true sharing, not a layout decision
			}
			ov, excluded := verdict(g1, g2)
			if ov == ovNo && !excluded {
				continue
			}
			class, certain := classOf(ov, g1.write || g2.write)
			key := pairKey(g1.field, g2.field)
			agg := aggs[key]
			if agg == nil {
				agg = &pairAgg{}
				aggs[key] = agg
			}
			agg.addGroup(class, certain, minHist(g1.freqs, g2.freqs), g1.min, g2.min)
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

// less is a total order on conflict keys, used only to canonicalize the
// verdict-memo key (the verdict itself is symmetric).
func (k conflictKey) less(o conflictKey) bool {
	if k.inst.Kind != o.inst.Kind {
		return k.inst.Kind < o.inst.Kind
	}
	if k.inst.Index != o.inst.Index {
		return k.inst.Index < o.inst.Index
	}
	if k.threads != o.threads {
		return k.threads < o.threads
	}
	if k.held != o.held {
		return k.held < o.held
	}
	return k.segs < o.segs
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
// independent of enumeration order and of how accesses are grouped:
// classes fold by max, certainty by or, evidence by lexicographic
// minimum, and weights are kept as min-frequency histograms per class so
// the final sum associates in one canonical (value-ascending) order no
// matter which path produced it. The summary path feeds it one group
// pair at a time, the test-only exact walk one access pair at a time;
// both end at bit-identical PairInfos.
type pairAgg struct {
	class     PairClass
	certain   bool
	hist      [WriteShared + 1]map[float64]int64
	ev        [WriteShared + 1][2]int
	evSet     [WriteShared + 1]bool
	evCertain [2]int
	evCertSet bool
}

func (g *pairAgg) bump(class PairClass, certain bool, a1, a2 int) {
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
}

func lessPair(a1, a2 int, than [2]int) bool {
	return a1 < than[0] || (a1 == than[0] && a2 < than[1])
}

// addGroup records a whole group pair (summary path): hist is the
// min-frequency histogram of the cross product, (a1, a2) its
// lexicographically smallest evidence pair.
func (g *pairAgg) addGroup(class PairClass, certain bool, hist map[float64]int64, a1, a2 int) {
	g.bump(class, certain, a1, a2)
	h := g.hist[class]
	if h == nil {
		h = make(map[float64]int64)
		g.hist[class] = h
	}
	for v, c := range hist {
		h[v] += c
	}
}

// finalize folds the aggregate into the published PairInfo. Weight sums
// the final class's histogram in ascending value order — the canonical
// association both classification paths share. Evidence is the smallest
// certainly-write-shared pair when the verdict is certain, else the
// smallest pair of the final class.
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

// minHist returns the histogram of min(v1, v2) over the cross product of
// two frequency histograms — the closed form of the exact path's
// per-pair min accumulation. A cross pair's min is counted on the h1
// side when the h2 value is ≥ it, and on the h2 side when the h1 value
// is strictly greater, so every pair is counted exactly once.
func minHist(h1, h2 map[float64]int64) map[float64]int64 {
	v1, s1 := sortedSuffix(h1)
	v2, s2 := sortedSuffix(h2)
	out := make(map[float64]int64, len(v1)+len(v2))
	for _, v := range v1 {
		if ge := countAtLeast(v2, s2, v, false); ge > 0 {
			out[v] += h1[v] * ge
		}
	}
	for _, v := range v2 {
		if gt := countAtLeast(v1, s1, v, true); gt > 0 {
			out[v] += h2[v] * gt
		}
	}
	return out
}

// sortedSuffix returns the histogram's distinct values ascending and the
// suffix counts s[i] = Σ_{j≥i} h[v[j]].
func sortedSuffix(h map[float64]int64) ([]float64, []int64) {
	vals := make([]float64, 0, len(h))
	for v := range h {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	suffix := make([]int64, len(vals)+1)
	for i := len(vals) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + h[vals[i]]
	}
	return vals, suffix
}

// countAtLeast returns the total count of values ≥ v (strict when
// excl is set) in a sorted histogram with suffix counts.
func countAtLeast(vals []float64, suffix []int64, v float64, excl bool) int64 {
	i := sort.SearchFloat64s(vals, v)
	if excl && i < len(vals) && vals[i] == v {
		i++
	}
	return suffix[i]
}
