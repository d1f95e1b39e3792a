package machine

import (
	"testing"
	"testing/quick"
)

func TestBuiltinsValidate(t *testing.T) {
	for _, topo := range []*Topology{Superdome128(), Way16(), Bus4(), Uniprocessor()} {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
	}
}

func TestCPUCounts(t *testing.T) {
	cases := map[string]int{"Superdome128": 128, "Way16": 16, "Bus4": 4, "UP1": 1}
	for _, topo := range []*Topology{Superdome128(), Way16(), Bus4(), Uniprocessor()} {
		if got := topo.NumCPUs(); got != cases[topo.Name] {
			t.Fatalf("%s: NumCPUs = %d, want %d", topo.Name, got, cases[topo.Name])
		}
	}
}

func TestSuperdomeDistances(t *testing.T) {
	sd := Superdome128()
	// CPU coordinates: [crossbar, cell, bus, chip, core]; strides:
	// crossbar=32, cell=8, bus=4, chip=2, core=1.
	cases := []struct {
		a, b int
		want int64
	}{
		{0, 1, 80},    // same chip, sibling core
		{0, 2, 150},   // same bus, other chip
		{0, 4, 220},   // same cell, other bus
		{0, 8, 400},   // same crossbar, other cell
		{0, 32, 1000}, // other crossbar
		{0, 127, 1000},
	}
	for _, c := range cases {
		if got := sd.TransferLatency(c.a, c.b); got != c.want {
			t.Fatalf("TransferLatency(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := sd.TransferLatency(5, 5); got != sd.HitLatency {
		t.Fatalf("self transfer = %d, want hit latency", got)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	sd := Superdome128()
	f := func(a, b uint8) bool {
		x, y := int(a)%128, int(b)%128
		return sd.distance(x, y) == sd.distance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferMonotoneInDistance(t *testing.T) {
	sd := Superdome128()
	// Latency must not decrease as topological distance grows.
	prev := int64(0)
	for d := len(sd.Shape) - 1; d >= 0; d-- {
		if sd.CacheToCache[d] < prev {
			t.Fatalf("latency at level %d (%d) below finer level (%d)", d, sd.CacheToCache[d], prev)
		}
		prev = sd.CacheToCache[d]
	}
}

func TestBus4Flat(t *testing.T) {
	b := Bus4()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if got := b.TransferLatency(i, j); got != 130 {
				t.Fatalf("bus transfer(%d,%d) = %d", i, j, got)
			}
		}
	}
	// The 4-way box: remote cache only slightly above a memory access.
	if b.CacheToCache[0] > 2*b.MemBase {
		t.Fatal("Bus4 remote-cache latency should be near an L2 miss")
	}
}

func TestMemLatencyHomeAffinity(t *testing.T) {
	sd := Superdome128()
	var local, remote int64
	for line := int64(0); line < 1<<16; line += 37 {
		l := sd.MemLatency(0, line)
		if sd.HomeNode(line) == 0 {
			local = l
		} else {
			remote = l
		}
	}
	if local == 0 || remote == 0 {
		t.Fatal("did not observe both local and remote homes")
	}
	if remote <= local {
		t.Fatalf("remote memory (%d) not slower than local (%d)", remote, local)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	bad := []*Topology{
		{Name: "empty", Shape: nil, CacheToCache: nil, MemBase: 1, HitLatency: 1, ClockHz: 1},
		{Name: "zero fanout", Shape: []int{0}, CacheToCache: []int64{1}, MemBase: 1, HitLatency: 1, ClockHz: 1},
		{Name: "wrong lat count", Shape: []int{2, 2}, CacheToCache: []int64{5}, MemBase: 1, HitLatency: 1, ClockHz: 1},
		{Name: "inverted lat", Shape: []int{2, 2}, CacheToCache: []int64{5, 50}, MemBase: 1, HitLatency: 1, ClockHz: 1},
		{Name: "no clock", Shape: []int{2}, CacheToCache: []int64{5}, MemBase: 1, HitLatency: 1, ClockHz: 0},
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", topo.Name)
		}
	}
}

func TestSeconds(t *testing.T) {
	sd := Superdome128()
	if got := sd.Seconds(1_200_000_000); got != 1.0 {
		t.Fatalf("Seconds = %v, want 1.0", got)
	}
}

func TestIntermediateSuperdomes(t *testing.T) {
	sd32, sd64, sd128 := Superdome32(), Superdome64(), Superdome128()
	if sd32.NumCPUs() != 32 || sd64.NumCPUs() != 64 {
		t.Fatalf("cpu counts: %d, %d", sd32.NumCPUs(), sd64.NumCPUs())
	}
	// Worst-case transfer latency is monotone in machine size.
	worst := func(topo *Topology) int64 { return topo.CacheToCache[0] }
	if worst(sd32) > worst(sd64) || worst(sd64) > worst(sd128) {
		t.Fatal("worst-case latency should not shrink with machine size")
	}
	// Same-chip latency is identical across the family.
	if sd32.TransferLatency(0, 1) != sd128.TransferLatency(0, 1) {
		t.Fatal("same-chip latency differs across the Superdome family")
	}
}
