package cluster

import (
	"testing"

	"structlayout/internal/affinity"
	"structlayout/internal/flg"
	"structlayout/internal/ir"
)

// makeGraph hand-builds an FLG over a struct with the given number of
// 8-byte fields, hotness, and edges.
func makeGraph(n int, hot map[int]float64, gain, loss map[[2]int]float64) *flg.Graph {
	fields := make([]ir.Field, n)
	for i := range fields {
		fields[i] = ir.I64(fieldName(i))
	}
	return graphOf(ir.NewStruct("T", fields...), hot, gain, loss)
}

// graphOf hand-builds an FLG over st whose pairs carry the given gains
// and losses.
func graphOf(st *ir.StructType, hot map[int]float64, gain, loss map[[2]int]float64) *flg.Graph {
	ag := &affinity.Graph{Struct: st, Weights: map[[2]int]float64{}, Hotness: hot}
	g := &flg.Graph{Struct: st, Pairs: map[[2]int]flg.Edge{}, Affinity: ag}
	for k, w := range gain {
		e := g.Pair(k[0], k[1])
		e.Gain = w
		g.Pairs[[2]int{e.F1, e.F2}] = e
	}
	for k, w := range loss {
		e := g.Pair(k[0], k[1])
		e.Loss = w
		g.Pairs[[2]int{e.F1, e.F2}] = e
	}
	return g
}

func fieldName(i int) string {
	return "f" + string(rune('a'+i))
}

func TestAffineFieldsClusterTogether(t *testing.T) {
	g := makeGraph(4,
		map[int]float64{0: 100, 1: 90, 2: 80, 3: 70},
		map[[2]int]float64{
			{0, 1}: 50, // f0-f1 affine
			{2, 3}: 40, // f2-f3 affine
		}, nil)
	res := Greedy(g, 128)
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if !sameSet(res.Clusters[0], []int{0, 1}) || !sameSet(res.Clusters[1], []int{2, 3}) {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if res.IntraWeight != 90 || res.InterWeight != 0 {
		t.Fatalf("intra=%v inter=%v", res.IntraWeight, res.InterWeight)
	}
}

func TestNegativeEdgeSeparates(t *testing.T) {
	g := makeGraph(3,
		map[int]float64{0: 100, 1: 90, 2: 80},
		map[[2]int]float64{{0, 1}: 10},
		map[[2]int]float64{{0, 2}: 50, {1, 2}: 50})
	res := Greedy(g, 128)
	// f2 must not join {f0,f1}: its total weight to the cluster is -100.
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if !sameSet(res.Clusters[0], []int{0, 1}) || !sameSet(res.Clusters[1], []int{2}) {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if res.InterWeight != -100 {
		t.Fatalf("inter = %v", res.InterWeight)
	}
}

func TestSeedIsHottest(t *testing.T) {
	g := makeGraph(3, map[int]float64{0: 1, 1: 500, 2: 2}, nil, nil)
	res := Greedy(g, 128)
	// No positive edges: every field is a singleton, hottest first.
	if len(res.Clusters) != 3 || res.Clusters[0][0] != 1 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
}

func TestCapacityLimitsCluster(t *testing.T) {
	// 5 mutually affine 8-byte fields with a 32-byte line: max 4 per line.
	gain := map[[2]int]float64{}
	hot := map[int]float64{}
	for i := 0; i < 5; i++ {
		hot[i] = float64(100 - i)
		for j := i + 1; j < 5; j++ {
			gain[[2]int{i, j}] = 10
		}
	}
	g := makeGraph(5, hot, gain, nil)
	res := Greedy(g, 32)
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if len(res.Clusters[0]) != 4 || len(res.Clusters[1]) != 1 {
		t.Fatalf("cluster sizes = %d,%d", len(res.Clusters[0]), len(res.Clusters[1]))
	}
}

func TestOversizedFieldSingleton(t *testing.T) {
	big := ir.NewStruct("B", ir.Arr("huge", 64, 8, 8), ir.I64("x"), ir.I64("y"))
	g := graphOf(big, map[int]float64{0: 10, 1: 5, 2: 1}, map[[2]int]float64{{1, 2}: 5}, nil)
	res := Greedy(g, 128)
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if len(res.Clusters[0]) != 1 || res.Clusters[0][0] != 0 {
		t.Fatalf("oversized field not a singleton: %v", res.Clusters)
	}
}

func TestGreedyMostProfitableFirst(t *testing.T) {
	// Figure 7: pick the unassigned node maximizing total weight to the
	// cluster, not just any positive one.
	g := makeGraph(3,
		map[int]float64{0: 100, 1: 50, 2: 40},
		map[[2]int]float64{{0, 1}: 5, {0, 2}: 30}, nil)
	res := Greedy(g, 16) // only two 8-byte fields fit per line
	if !sameSet(res.Clusters[0], []int{0, 2}) {
		t.Fatalf("cluster 0 = %v, want {0,2}", res.Clusters[0])
	}
}

func TestSubgraphClustering(t *testing.T) {
	// Only nodes 1,2,4 have important edges; greedy over the subgraph must
	// ignore 0 and 3 entirely.
	g := makeGraph(5,
		map[int]float64{0: 1000, 1: 90, 2: 80, 3: 900, 4: 70},
		map[[2]int]float64{{1, 2}: 25},
		map[[2]int]float64{{1, 4}: 60})
	res := GreedySubgraph(g, 128)
	found := map[int]bool{}
	for _, c := range res.Clusters {
		for _, f := range c {
			found[f] = true
		}
	}
	if found[0] || found[3] {
		t.Fatalf("zero-degree nodes clustered: %v", res.Clusters)
	}
	if !found[1] || !found[2] || !found[4] {
		t.Fatalf("subgraph nodes missing: %v", res.Clusters)
	}
	// 1 and 2 together; 4 separate.
	for _, c := range res.Clusters {
		if containsInt(c, 1) && !containsInt(c, 2) {
			t.Fatalf("1 and 2 split: %v", res.Clusters)
		}
		if containsInt(c, 1) && containsInt(c, 4) {
			t.Fatalf("1 and 4 together: %v", res.Clusters)
		}
	}
}

func TestSeparatePredicate(t *testing.T) {
	g := makeGraph(4,
		map[int]float64{0: 10, 1: 9, 2: 8, 3: 7},
		map[[2]int]float64{{0, 1}: 5},
		map[[2]int]float64{{0, 2}: 50})
	clusters := [][]int{{0, 1}, {2}, {3}}
	sep := SeparatePredicate(g, clusters)
	if !sep(0, 1) {
		t.Fatal("negative-weight clusters not separated")
	}
	if sep(0, 2) || sep(1, 2) {
		t.Fatal("unrelated clusters separated")
	}
	if sep(0, 0) || sep(-1, 1) || sep(0, 99) {
		t.Fatal("degenerate inputs should not separate")
	}
}

func TestBetweenWeight(t *testing.T) {
	g := makeGraph(4, map[int]float64{},
		map[[2]int]float64{{0, 2}: 7},
		map[[2]int]float64{{1, 3}: 2})
	if got := BetweenWeight(g, []int{0, 1}, []int{2, 3}); got != 5 {
		t.Fatalf("BetweenWeight = %v, want 5", got)
	}
}

func TestDeterminism(t *testing.T) {
	gain := map[[2]int]float64{{0, 1}: 10, {2, 3}: 10, {4, 5}: 10}
	hot := map[int]float64{0: 10, 1: 10, 2: 10, 3: 10, 4: 10, 5: 10}
	g := makeGraph(6, hot, gain, nil)
	a := Greedy(g, 128)
	b := Greedy(g, 128)
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a.Clusters {
		if !sameSet(a.Clusters[i], b.Clusters[i]) {
			t.Fatalf("cluster %d differs: %v vs %v", i, a.Clusters[i], b.Clusters[i])
		}
	}
}

func TestEveryFieldAssignedOnce(t *testing.T) {
	gain := map[[2]int]float64{}
	hot := map[int]float64{}
	for i := 0; i < 12; i++ {
		hot[i] = float64(i * 7 % 5)
		gain[[2]int{i / 2 * 2, i/2*2 + 1}] = 3
	}
	g := makeGraph(12, hot, gain, nil)
	res := Greedy(g, 32)
	seen := map[int]int{}
	for _, c := range res.Clusters {
		for _, f := range c {
			seen[f]++
		}
	}
	if len(seen) != 12 {
		t.Fatalf("assigned %d fields, want 12", len(seen))
	}
	for f, n := range seen {
		if n != 1 {
			t.Fatalf("field %d assigned %d times", f, n)
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
