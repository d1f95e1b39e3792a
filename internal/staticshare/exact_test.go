package staticshare

import (
	"sort"

	"structlayout/internal/ir"
	"structlayout/internal/irtext"
)

// analyzeExact is Analyze with the summary classification replaced by the
// exact per-access-pair walk: every fact before classification (tasks,
// happens-before, reach, frequencies, locks, accesses) is Analyze's own,
// and only Pairs is recomputed, with no procedure summaries left behind.
func analyzeExact(p *ir.Program, cfg Config) (*Result, error) {
	r, err := Analyze(p, cfg)
	if err != nil {
		return nil, err
	}
	r.Pairs = make(map[string]map[[2]int]PairInfo)
	r.summaries = nil
	r.classifyExact()
	return r, nil
}

// lintFileExact is LintFile through analyzeExact.
func lintFileExact(f *irtext.File, lineSize int) ([]Finding, *Result, error) {
	res, err := analyzeExact(f.Prog, FileConfig(f))
	if err != nil {
		return nil, nil, err
	}
	return res.Lint(originalLayouts(f, lineSize)), res, nil
}

// classifyExact is the original per-access-pair classification walk, the
// oracle the summary path is differentially tested against: O(accesses²)
// pairs per struct, the thread/lock/instance verdict re-derived for every
// pair. It feeds the same order-canonical aggregator as classifySummary,
// so both paths produce bit-identical PairInfos.
func (r *Result) classifyExact() {
	names := make([]string, 0, len(r.byStruct))
	for name := range r.byStruct {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		idxs := r.byStruct[name]
		aggs := make(map[[2]int]*pairAgg)
		for x := 0; x < len(idxs); x++ {
			a1 := &r.Accesses[idxs[x]]
			for y := x + 1; y < len(idxs); y++ {
				a2 := &r.Accesses[idxs[y]]
				if a1.Field == a2.Field {
					continue // true sharing, not a layout decision
				}
				ov, excluded := r.conflictVerdict(a1, a2)
				if ov == ovNo && !excluded {
					continue
				}
				class, certain := classOf(ov, a1.Write || a2.Write)
				w := a1.Freq
				if a2.Freq < w {
					w = a2.Freq
				}
				key := pairKey(a1.Field, a2.Field)
				agg := aggs[key]
				if agg == nil {
					agg = &pairAgg{}
					aggs[key] = agg
				}
				agg.addPair(class, certain, w, idxs[x], idxs[y])
			}
		}
		if len(aggs) > 0 {
			pairs := make(map[[2]int]PairInfo, len(aggs))
			for k, agg := range aggs {
				pairs[k] = agg.finalize()
			}
			r.Pairs[name] = pairs
		}
	}
}

// addPair records one access pair of the exact walk: w is
// min(freq1, freq2).
func (g *pairAgg) addPair(class PairClass, certain bool, w float64, a1, a2 int) {
	g.bump(class, certain, a1, a2)
	h := g.hist[class]
	if h == nil {
		h = make(map[float64]int64)
		g.hist[class] = h
	}
	h[w]++
}
