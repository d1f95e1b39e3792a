package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"structlayout/internal/flg"
	"structlayout/internal/ir"
)

// referenceCluster is the direct reading of Figures 6 and 7 that the
// running-total greedy must reproduce: every round re-sums each
// candidate's weight to the whole open cluster and re-packs the cluster
// to check the fit.
func referenceCluster(g *flg.Graph, order []int, lineSize int) Result {
	var res Result
	unassigned := append([]int(nil), order...)
	remove := func(f int) {
		for i, x := range unassigned {
			if x == f {
				unassigned = append(unassigned[:i], unassigned[i+1:]...)
				return
			}
		}
	}

	for len(unassigned) > 0 {
		seed := unassigned[0]
		remove(seed)
		cur := []int{seed}
		for {
			best, bestW := -1, 0.0
			for _, cand := range unassigned {
				if !fits(g, cur, cand, lineSize) {
					continue
				}
				w := 0.0
				for _, member := range cur {
					w += g.Weight(cand, member)
				}
				// Figure 7: best_weight starts at 0, so only strictly
				// positive totals are ever chosen.
				if w > bestW {
					best, bestW = cand, w
				}
			}
			if best < 0 {
				break
			}
			remove(best)
			cur = append(cur, best)
		}
		res.Clusters = append(res.Clusters, cur)
	}

	res.IntraWeight, res.InterWeight = Weights(g, res.Clusters)
	return res
}

// fits reports whether cluster+cand still packs into one cache line.
// Singletons always fit (an oversized field must live somewhere).
func fits(g *flg.Graph, cur []int, cand int, lineSize int) bool {
	end := 0
	for _, fi := range append(append([]int(nil), cur...), cand) {
		f := g.Struct.Fields[fi]
		end = (end+f.Align-1)/f.Align*f.Align + f.Size
	}
	return end <= lineSize
}

// referenceSubgraph is GreedySubgraph's reference: the fields with a pair,
// ascending, insertion-sorted by hotness descending with the field index
// breaking ties.
func referenceSubgraph(g *flg.Graph, lineSize int) Result {
	set := map[int]bool{}
	for k := range g.Pairs {
		set[k[0]], set[k[1]] = true, true
	}
	var order []int
	for f := range g.Struct.Fields {
		if set[f] {
			order = append(order, f)
		}
	}
	hot := g.Affinity.Hotness
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if hot[b] > hot[a] || (hot[b] == hot[a] && b < a) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return referenceCluster(g, order, lineSize)
}

// oracleWeights are the values pair gains and losses draw from: decimal
// fractions whose float sums depend on the order they are added in, so a
// greedy that accumulates a candidate's total in any order but member
// order picks a different field on some near-tie.
var oracleWeights = []float64{0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 2.5}

// randomFLG draws an FLG over 2–130 fields of 1–300 bytes aligned to 1,
// 2, 4 or 8 bytes, most of them small enough to share a 128-byte line and
// some wider than it. Each pair holds a gain, a loss, both or neither, and
// hotness takes few values, so seeds tie.
func randomFLG(rng *rand.Rand) *flg.Graph {
	n := 2 + rng.Intn(129)
	fields := make([]ir.Field, n)
	hot := map[int]float64{}
	for i := range fields {
		size := 1 + rng.Intn(24)
		if rng.Intn(6) == 0 {
			size = 1 + rng.Intn(300)
		}
		fields[i] = ir.Field{Name: fmt.Sprintf("f%d", i), Size: size, Align: 1 << rng.Intn(4)}
		if h := rng.Intn(5); h > 0 {
			hot[i] = float64(100 * h)
		}
	}
	gain := map[[2]int]float64{}
	loss := map[[2]int]float64{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			kind := rng.Intn(4)
			if kind&1 != 0 {
				gain[[2]int{i, j}] = oracleWeights[rng.Intn(len(oracleWeights))]
			}
			if kind&2 != 0 {
				loss[[2]int{i, j}] = oracleWeights[rng.Intn(len(oracleWeights))] / 2
			}
		}
	}
	return graphOf(ir.NewStruct("R", fields...), hot, gain, loss)
}

// TestGreedyMatchesReference checks Greedy and GreedySubgraph against the
// reference greedy on random FLGs: the same clusters in the same order,
// and bit-identical intra- and inter-cluster weights.
func TestGreedyMatchesReference(t *testing.T) {
	graphs := 120
	if testing.Short() {
		graphs = 30
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < graphs; i++ {
		g := randomFLG(rng)
		sameResult(t, fmt.Sprintf("graph %d (%d fields): Greedy", i, len(g.Struct.Fields)),
			Greedy(g, 128), referenceCluster(g, g.Affinity.HottestFirst(), 128))
		sub := g.Important(20)
		sameResult(t, fmt.Sprintf("graph %d (%d fields): GreedySubgraph", i, len(g.Struct.Fields)),
			GreedySubgraph(sub, 128), referenceSubgraph(sub, 128))
	}
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatalf("%s: clusters\n got %v\nwant %v", what, got.Clusters, want.Clusters)
	}
	if math.Float64bits(got.IntraWeight) != math.Float64bits(want.IntraWeight) ||
		math.Float64bits(got.InterWeight) != math.Float64bits(want.InterWeight) {
		t.Fatalf("%s: weights intra %v inter %v, want %v and %v",
			what, got.IntraWeight, got.InterWeight, want.IntraWeight, want.InterWeight)
	}
}
