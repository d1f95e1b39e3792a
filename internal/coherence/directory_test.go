package coherence

import (
	"math/rand"
	"reflect"
	"testing"

	"structlayout/internal/machine"
)

const (
	mixedAccesses = 50000
	mixedLines    = 200
)

// driveMixed replays one seeded access mix (reads/writes, partial-line
// accesses, enough lines to evict in a small cache) against a fresh Bus4
// system and returns it with every access's outcome. The flat directory
// is reserved for all lines just before access reserveAt; a negative
// reserveAt never reserves, leaving every line in the map tier.
func driveMixed(t *testing.T, reserveAt int) (*System, []AccessResult) {
	t.Helper()
	topo := machine.Bus4()
	cfg := SmallCache()
	s := mustSystem(t, topo, cfg)
	rng := rand.New(rand.NewSource(42))
	out := make([]AccessResult, mixedAccesses)
	for i := range out {
		if i == reserveAt {
			s.ReserveDirectory(mixedLines * cfg.LineSize)
		}
		cpu := rng.Intn(topo.NumCPUs())
		line := int64(rng.Intn(mixedLines))
		off := int64(rng.Intn(int(cfg.LineSize)/8)) * 8 // line-interior, no straddle
		write := rng.Intn(3) == 0
		out[i] = s.Access(cpu, line*cfg.LineSize+off, 8, write)
	}
	return s, out
}

// TestDirectoryTiersAgree: where a line's directory entry lives — the
// map tier, the flat tier reserved up front, or the flat tier after
// ReserveDirectory migrated live map entries mid-stream — is an
// allocation detail. Every access outcome, per-CPU counter and per-line
// state must match across the three, and each must pass the invariants.
func TestDirectoryTiersAgree(t *testing.T) {
	topo := machine.Bus4()
	mapOnly, mapRes := driveMixed(t, -1)
	if mapOnly.flatLines != 0 || len(mapOnly.lines) != mixedLines {
		t.Fatalf("map-only system: %d flat lines, %d map entries; want 0, %d", mapOnly.flatLines, len(mapOnly.lines), mixedLines)
	}
	for _, tc := range []struct {
		name      string
		reserveAt int
	}{
		{"reserved up front", 0},
		{"reserved mid-stream", mixedAccesses / 2},
	} {
		s, res := driveMixed(t, tc.reserveAt)
		if len(s.lines) != 0 {
			t.Fatalf("%s: %d entries left in the map tier", tc.name, len(s.lines))
		}
		for i := range res {
			if res[i] != mapRes[i] {
				t.Fatalf("%s: access %d outcome %+v, map tier %+v", tc.name, i, res[i], mapRes[i])
			}
		}
		for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
			if got, want := s.CPUStats(cpu), mapOnly.CPUStats(cpu); got != want {
				t.Fatalf("%s: cpu %d stats %+v, map tier %+v", tc.name, cpu, got, want)
			}
			for line := int64(0); line < mixedLines; line++ {
				addr := line * s.cfg.LineSize
				if got, want := s.StateOf(cpu, addr), mapOnly.StateOf(cpu, addr); got != want {
					t.Fatalf("%s: line %d cpu %d state %v, map tier %v", tc.name, line, cpu, got, want)
				}
			}
		}
		s.forEachLine(func(line int64, li *lineInfo) {
			if want := mapOnly.lookup(line); !reflect.DeepEqual(li, want) {
				t.Fatalf("%s: line %d directory entry %+v, map tier %+v", tc.name, line, li, want)
			}
		})
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if err := mapOnly.CheckInvariants(); err != nil {
		t.Fatalf("map tier: %v", err)
	}
}

// TestGlobalStatsIsPerCPUSum: with the global counters derived rather than
// stored, the derivation must be exact — every increment lands on exactly
// one CPU.
func TestGlobalStatsIsPerCPUSum(t *testing.T) {
	s, _ := driveMixed(t, 0)
	var sum Stats
	for cpu := 0; cpu < machine.Bus4().NumCPUs(); cpu++ {
		sum.Add(s.CPUStats(cpu))
	}
	if g := s.GlobalStats(); g != sum {
		t.Fatalf("GlobalStats %+v != per-CPU sum %+v", g, sum)
	}
	if g := s.GlobalStats(); g.Accesses != mixedAccesses {
		t.Fatalf("accesses %d, want %d", g.Accesses, mixedAccesses)
	}
}
