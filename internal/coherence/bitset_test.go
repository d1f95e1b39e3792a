package coherence

import (
	"math/rand"
	"testing"

	"structlayout/internal/machine"
)

// nearest returns the member with the smallest transfer latency to cpu
// (excluding cpu itself), lowest index first among equals, or -1 if the
// set is empty or contains only cpu: the per-sharer walk nearestSharer
// replaces.
func (b bitset) nearest(cpu int, topo *machine.Topology) int {
	best := -1
	var bestLat int64
	b.forEach(func(i int) {
		if i == cpu {
			return
		}
		lat := topo.TransferLatency(i, cpu)
		if best == -1 || lat < bestLat {
			best, bestLat = i, lat
		}
	})
	return best
}

// TestNearestSharerMatchesWalk: the latency-class lookup picks the same
// supplier as the per-sharer walk, for every CPU of every evaluation
// machine, over the empty set, {cpu} alone and seeded random sharer sets
// of every density.
func TestNearestSharerMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, topo := range []*machine.Topology{machine.Bus4(), machine.Way16(), machine.Superdome128()} {
		s, err := NewSystem(topo, SmallCache())
		if err != nil {
			t.Fatal(err)
		}
		n := topo.NumCPUs()
		for cpu := 0; cpu < n; cpu++ {
			sets := []bitset{newBitset(s.words), newBitset(s.words)}
			sets[1].set(cpu)
			for i := 0; i < 40; i++ {
				b := newBitset(s.words)
				density := rng.Float64()
				for c := 0; c < n; c++ {
					if rng.Float64() < density {
						b.set(c)
					}
				}
				sets = append(sets, b)
			}
			for _, b := range sets {
				if got, want := s.nearestSharer(cpu, b), b.nearest(cpu, topo); got != want {
					t.Fatalf("%s cpu %d sharers %x: nearestSharer = %d, walk = %d", topo.Name, cpu, []uint64(b), got, want)
				}
			}
		}
	}
}
