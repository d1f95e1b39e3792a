package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"structlayout/internal/flg"
	"structlayout/internal/layout"
)

// randomGraph builds an arbitrary FLG over n 8-byte fields from a seed.
func randomGraph(n int, seed int64) *flg.Graph {
	rng := rand.New(rand.NewSource(seed))
	hot := map[int]float64{}
	gain := map[[2]int]float64{}
	loss := map[[2]int]float64{}
	for i := 0; i < n; i++ {
		hot[i] = float64(rng.Intn(1000))
		for j := i + 1; j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				gain[[2]int{i, j}] = float64(rng.Intn(500) + 1)
			case 1:
				loss[[2]int{i, j}] = float64(rng.Intn(500) + 1)
			}
		}
	}
	return makeGraph(n, hot, gain, loss)
}

// TestGreedyPropertyPartition: every field lands in exactly one cluster and
// no multi-field cluster exceeds a cache line.
func TestGreedyPropertyPartition(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%24) + 2
		g := randomGraph(n, seed)
		res := Greedy(g, 64) // 8 fields per line max
		seen := map[int]int{}
		for _, c := range res.Clusters {
			if len(c) == 0 {
				return false
			}
			if len(c) > 8 {
				return false // 8 × 8 bytes = 64-byte line capacity
			}
			for _, fi := range c {
				seen[fi]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, k := range seen {
			if k != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyPropertyClusterIntraNonNegative: each cluster's internal weight
// is the sum of the strictly positive weights its members were admitted
// with (Figure 7's best_weight > 0 rule), so it can never be negative.
// (Note a *member's* tie to the rest can turn negative after later
// admissions — a real artifact of the paper's greedy that the §5.2
// incremental mode exists to paper over.)
func TestGreedyPropertyClusterIntraNonNegative(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 2
		g := randomGraph(n, seed)
		res := Greedy(g, 128)
		for _, c := range res.Clusters {
			w := 0.0
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					w += g.Weight(c[i], c[j])
				}
			}
			if w < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPackPropertySeparation: PackClusters with the separation predicate
// never co-locates clusters connected by negative total weight.
func TestPackPropertySeparation(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 2
		g := randomGraph(n, seed)
		res := Greedy(g, 128)
		lay, err := layout.PackClusters(g.Struct, "prop", res.Clusters, 128, SeparatePredicate(g, res.Clusters))
		if err != nil {
			return false
		}
		if lay.Validate() != nil {
			return false
		}
		for ci := range res.Clusters {
			for cj := ci + 1; cj < len(res.Clusters); cj++ {
				if BetweenWeight(g, res.Clusters[ci], res.Clusters[cj]) >= 0 {
					continue
				}
				for _, a := range res.Clusters[ci] {
					for _, b := range res.Clusters[cj] {
						if lay.SameLine(a, b) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyIntraAtLeastSingletons: clustering never does worse than the
// all-singletons partition (intra weight ≥ 0, since only positive ties are
// ever accepted).
func TestGreedyIntraAtLeastSingletons(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%24) + 2
		g := randomGraph(n, seed)
		res := Greedy(g, 128)
		return res.IntraWeight >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
