package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"

	"structlayout/internal/machine"
)

func mustSystem(t testing.TB, topo *machine.Topology, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(topo, cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func newSD(t testing.TB) *System {
	t.Helper()
	return mustSystem(t, machine.Superdome128(), DefaultItanium())
}

func TestColdMissThenHit(t *testing.T) {
	s := newSD(t)
	r := s.Access(0, 0x1000, 8, false)
	if r.Miss != MissCold {
		t.Fatalf("first access: miss=%v", r.Miss)
	}
	if r.Latency <= s.topo.HitLatency {
		t.Fatalf("cold miss latency %d too low", r.Latency)
	}
	r = s.Access(0, 0x1000, 8, false)
	if r.Miss != MissNone || r.Latency != s.topo.HitLatency {
		t.Fatalf("second access: %+v", r)
	}
	if st := s.StateOf(0, 0x1000); st != Exclusive {
		t.Fatalf("state after lone read = %v, want E", st)
	}
}

func TestReadSharing(t *testing.T) {
	s := newSD(t)
	s.Access(0, 0x2000, 8, false)
	r := s.Access(1, 0x2000, 8, false)
	if want := s.topo.TransferLatency(0, 1); r.Latency != want {
		t.Fatalf("latency = %d, want %d (supplied by CPU 0's cache)", r.Latency, want)
	}
	if s.StateOf(0, 0x2000) != Shared || s.StateOf(1, 0x2000) != Shared {
		t.Fatal("both copies should be Shared")
	}
}

func TestWriteUpgradeInvalidates(t *testing.T) {
	s := newSD(t)
	s.Access(0, 0x3000, 8, false)
	s.Access(1, 0x3000, 8, false)
	r := s.Access(0, 0x3000, 8, true)
	if r.Miss != MissUpgrade || r.Invalidations != 1 {
		t.Fatalf("upgrade: %+v", r)
	}
	if s.StateOf(0, 0x3000) != Modified {
		t.Fatal("writer should be Modified")
	}
	if s.StateOf(1, 0x3000) != Invalid {
		t.Fatal("other copy should be invalidated")
	}
}

func TestFalseSharingClassification(t *testing.T) {
	s := newSD(t)
	// CPU0 reads bytes [0,8); CPU1 writes bytes [64,72) of the same line.
	s.Access(0, 0x4000, 8, false)
	s.Access(1, 0x4040, 8, true)
	// CPU0's next read of its disjoint bytes is a false-sharing miss.
	r := s.Access(0, 0x4000, 8, false)
	if r.Miss != MissCoherence {
		t.Fatalf("miss = %v, want coherence", r.Miss)
	}
	if !r.FalseSharing {
		t.Fatal("disjoint byte ranges should classify as false sharing")
	}
	// True sharing: CPU1 writes the same bytes CPU0 reads.
	s.Access(1, 0x4000, 8, true)
	r = s.Access(0, 0x4000, 8, false)
	if r.Miss != MissCoherence || r.FalseSharing {
		t.Fatalf("overlapping write should be true sharing: %+v", r)
	}
	gs := s.GlobalStats()
	if gs.FalseSharing != 1 || gs.TrueSharing != 1 {
		t.Fatalf("stats: false=%d true=%d", gs.FalseSharing, gs.TrueSharing)
	}
}

func TestModifiedSupplyWritesBack(t *testing.T) {
	s := newSD(t)
	s.Access(0, 0x5000, 8, true)
	if s.StateOf(0, 0x5000) != Modified {
		t.Fatal("writer not Modified")
	}
	r := s.Access(1, 0x5000, 8, false)
	if want := s.topo.TransferLatency(0, 1); r.Latency != want {
		t.Fatalf("latency = %d, want %d (supplied by CPU 0's cache)", r.Latency, want)
	}
	if s.StateOf(0, 0x5000) != Shared || s.StateOf(1, 0x5000) != Shared {
		t.Fatal("after remote read both should be Shared")
	}
	if s.GlobalStats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s.GlobalStats().Writebacks)
	}
}

func TestRemoteLatencyDependsOnDistance(t *testing.T) {
	s := newSD(t)
	// Line owned modified by CPU 0.
	s.Access(0, 0x6000, 8, true)
	near := s.Access(1, 0x6000, 8, false) // same chip
	// Re-own by CPU 0.
	s.Access(0, 0x6000, 8, true)
	far := s.Access(127, 0x6000, 8, false) // other crossbar
	if far.Latency <= near.Latency {
		t.Fatalf("far latency %d should exceed near %d", far.Latency, near.Latency)
	}
	if far.Latency != 1000 {
		t.Fatalf("inter-crossbar transfer = %d, want 1000", far.Latency)
	}
}

func TestPingPong(t *testing.T) {
	s := newSD(t)
	// Two CPUs on different crossbars alternately writing the same line:
	// every access after the first pair must be a coherence event.
	s.Access(0, 0x7000, 8, true)
	s.Access(32, 0x7008, 8, true)
	for i := 0; i < 10; i++ {
		r0 := s.Access(0, 0x7000, 8, true)
		if r0.Miss != MissCoherence || !r0.FalseSharing {
			t.Fatalf("iter %d cpu0: %+v", i, r0)
		}
		r1 := s.Access(32, 0x7008, 8, true)
		if r1.Miss != MissCoherence || !r1.FalseSharing {
			t.Fatalf("iter %d cpu32: %+v", i, r1)
		}
	}
}

func TestCapacityEvictionIsReplacementMiss(t *testing.T) {
	s := mustSystem(t, machine.Bus4(), SmallCache())
	cfg := s.Config()
	// Fill one set beyond capacity: lines mapping to set 0 are multiples of
	// Sets*LineSize.
	strideBytes := int64(cfg.Sets) * cfg.LineSize
	for i := 0; i <= cfg.Ways; i++ {
		s.Access(0, int64(i)*strideBytes, 8, false)
	}
	// Line 0 was evicted; re-access must be a replacement miss.
	r := s.Access(0, 0, 8, false)
	if r.Miss != MissReplacement {
		t.Fatalf("miss = %v, want replacement", r.Miss)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := mustSystem(t, machine.Bus4(), SmallCache())
	cfg := s.Config()
	strideBytes := int64(cfg.Sets) * cfg.LineSize
	s.Access(0, 0, 8, true) // dirty line 0
	for i := 1; i <= cfg.Ways; i++ {
		s.Access(0, int64(i)*strideBytes, 8, false)
	}
	if s.GlobalStats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s.GlobalStats().Writebacks)
	}
}

func TestLineStraddlingAccess(t *testing.T) {
	s := newSD(t)
	lineSize := s.Config().LineSize
	r := s.Access(0, lineSize-4, 8, false) // crosses a line boundary
	if r.Latency <= s.topo.MemLatency(0, 0) {
		t.Fatalf("straddling access latency %d should cover two fetches", r.Latency)
	}
	if s.StateOf(0, lineSize-4) == Invalid || s.StateOf(0, lineSize) == Invalid {
		t.Fatal("both lines should be cached")
	}
}

func TestRFOInvalidatesAllSharers(t *testing.T) {
	s := newSD(t)
	for cpu := 0; cpu < 8; cpu++ {
		s.Access(cpu, 0x8000, 8, false)
	}
	r := s.Access(9, 0x8000, 8, true)
	if r.Invalidations != 8 {
		t.Fatalf("invalidations = %d, want 8", r.Invalidations)
	}
	for cpu := 0; cpu < 8; cpu++ {
		if s.StateOf(cpu, 0x8000) != Invalid {
			t.Fatalf("cpu %d still holds the line", cpu)
		}
	}
	if s.StateOf(9, 0x8000) != Modified {
		t.Fatal("writer not Modified")
	}
}

func TestInvariantsAfterRandomWorkload(t *testing.T) {
	for _, topoFn := range []func() *machine.Topology{machine.Bus4, machine.Way16} {
		topo := topoFn()
		s := mustSystem(t, topo, SmallCache())
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20000; i++ {
			cpu := rng.Intn(topo.NumCPUs())
			addr := int64(rng.Intn(64)) * 16 // 4 lines' worth of hot addresses
			size := 1 << rng.Intn(4)
			s.Access(cpu, addr, size, rng.Intn(3) == 0)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		gs := s.GlobalStats()
		if gs.Accesses == 0 || gs.Hits == 0 || gs.CohMisses == 0 {
			t.Fatalf("%s: implausible stats %+v", topo.Name, gs)
		}
	}
}

func TestInvariantsProperty(t *testing.T) {
	topo := machine.Bus4()
	type op struct {
		CPU   uint8
		Line  uint8
		Write bool
	}
	f := func(ops []op) bool {
		s := mustSystem(t, topo, SmallCache())
		for _, o := range ops {
			s.Access(int(o.CPU)%topo.NumCPUs(), int64(o.Line)*8, 8, o.Write)
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LineSize: 0, Sets: 4, Ways: 1},
		{LineSize: 96, Sets: 4, Ways: 1},
		{LineSize: 128, Sets: 3, Ways: 1},
		{LineSize: 128, Sets: 4, Ways: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v should be invalid", c)
		}
	}
	if err := DefaultItanium().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := newSD(t)
	s.Access(0, 0, 8, false)
	s.Access(0, 0, 8, false)
	s.Access(1, 0, 8, true)
	gs := s.GlobalStats()
	if gs.Accesses != 3 {
		t.Fatalf("accesses = %d", gs.Accesses)
	}
	if gs.Hits != 1 || gs.ColdMisses != 2 {
		t.Fatalf("hits=%d cold=%d", gs.Hits, gs.ColdMisses)
	}
	c0 := s.CPUStats(0)
	c1 := s.CPUStats(1)
	if c0.Accesses != 2 || c1.Accesses != 1 {
		t.Fatalf("per-cpu accesses: %d, %d", c0.Accesses, c1.Accesses)
	}
	if c1.Invalidations != 1 {
		t.Fatalf("cpu1 invalidations = %d", c1.Invalidations)
	}
	if gs.Misses() != 2 {
		t.Fatalf("Misses() = %d", gs.Misses())
	}
}

func TestMissKindStrings(t *testing.T) {
	if MissCold.String() != "cold" || MissUpgrade.String() != "upgrade" || MissNone.String() != "none" {
		t.Fatal("miss kind strings wrong")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Fatal("state strings wrong")
	}
}
