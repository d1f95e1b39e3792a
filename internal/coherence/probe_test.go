package coherence

import (
	"reflect"
	"testing"

	"structlayout/internal/machine"
)

// probeCfgs have four ways per set, so a line can sit in the MRU way, in
// a middle way or in the LRU way; lines Sets apart share a set. The first
// is one group of 8 sets, the second two groups, and the probed lines
// (Sets-5 and Sets-3) sit in the last group.
var probeCfgs = []Config{
	{LineSize: 128, Sets: 8, Ways: 4},
	{LineSize: 128, Sets: 2 * groupSets, Ways: 4},
}

// cacheView is everything a System's caches hold, comparable across two
// Systems: per allocated group, its CPU and index, and each way's tag,
// state and directory entry's line.
type cacheView []groupView

type groupView struct {
	cpu, group int
	lines      []int64
	state      []State
	info       []int64
	n          [groupSets]int16
}

func viewOf(s *System) cacheView {
	var v cacheView
	for cpu := range s.perCPU {
		for gi, g := range s.groupsOf(cpu) {
			if g == nil {
				continue
			}
			info := make([]int64, len(g.info))
			for i, li := range g.info {
				info[i] = -1
				if li != nil {
					info[i] = li.line
				}
			}
			v = append(v, groupView{cpu, gi, append([]int64(nil), g.lines...), append([]State(nil), g.state...), info, g.n})
		}
	}
	return v
}

// TestReadHitMatchesAccessInto: on a line resident in the reading CPU's
// cache, in the MRU, a middle or the LRU way and in M, E or S, the probe
// does exactly what AccessInto does: the same result, the same per-CPU
// counters, the same way order and states.
func TestReadHitMatchesAccessInto(t *testing.T) {
	for _, cfg := range probeCfgs {
		x := (int64(cfg.Sets) - 5) * cfg.LineSize // line 3 in 8 sets
		span := int64(cfg.Sets) * cfg.LineSize    // bytes between lines of one set
		for _, st := range []State{Modified, Exclusive, Shared} {
			for _, after := range []int{0, 1, 3} { // same-set lines read after x
				build := func() *System {
					s := mustSystem(t, machine.Bus4(), cfg)
					s.Access(0, 0, 8, false) // a line in the first group
					switch st {
					case Modified:
						s.Access(0, x, 8, true)
					case Exclusive:
						s.Access(0, x, 8, false)
					case Shared:
						s.Access(1, x, 8, false)
						s.Access(0, x, 8, false)
					}
					for i := 1; i <= after; i++ {
						s.Access(0, x+int64(i)*span, 8, false)
					}
					if got := s.StateOf(0, x); got != st {
						t.Fatalf("%d sets, setup: cpu 0 holds %v, want %v", cfg.Sets, got, st)
					}
					return s
				}
				full, probed := build(), build()
				var want, got AccessResult
				full.AccessInto(0, x+16, 8, false, &want)
				if !probed.ReadHit(0, x+16, &got) {
					t.Fatalf("%d sets, %v, %d lines after: probe missed a resident line", cfg.Sets, st, after)
				}
				if want.Miss != MissNone {
					t.Fatalf("%d sets, %v, %d lines after: AccessInto missed (%v)", cfg.Sets, st, after, want.Miss)
				}
				if got != want {
					t.Fatalf("%d sets, %v, %d lines after: probe result %+v, AccessInto %+v", cfg.Sets, st, after, got, want)
				}
				if !reflect.DeepEqual(probed.perCPU, full.perCPU) {
					t.Fatalf("%d sets, %v, %d lines after: per-CPU stats %+v, want %+v", cfg.Sets, st, after, probed.perCPU, full.perCPU)
				}
				if pv, fv := viewOf(probed), viewOf(full); !reflect.DeepEqual(pv, fv) {
					t.Fatalf("%d sets, %v, %d lines after: caches differ:\nprobe  %+v\naccess %+v", cfg.Sets, st, after, pv, fv)
				}
				if err := probed.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestReadHitLeavesMissesAlone: on a line the CPU does not hold — never
// cached, evicted, invalidated by another CPU's write, in a set (or, with
// two groups, a group) the CPU never filled, or on a CPU that has never
// accessed anything — the probe reports false and changes nothing; in
// particular it allocates no group.
func TestReadHitLeavesMissesAlone(t *testing.T) {
	for _, cfg := range probeCfgs {
		x := (int64(cfg.Sets) - 3) * cfg.LineSize // line 5 in 8 sets
		span := int64(cfg.Sets) * cfg.LineSize
		for _, tc := range []struct {
			name  string
			cpu   int
			setup func(s *System)
		}{
			{"never cached", 0, func(s *System) { s.Access(0, x+128, 8, false) }},
			{"evicted", 0, func(s *System) {
				for i := int64(0); i <= 4; i++ { // five lines through four ways
					s.Access(0, x+i*span, 8, false)
				}
			}},
			{"invalidated", 0, func(s *System) {
				s.Access(0, x, 8, false)
				s.Access(1, x+64, 8, true)
			}},
			{"set never filled", 0, func(s *System) { s.Access(0, 0, 8, true) }},
			{"idle cpu", 2, func(s *System) { s.Access(0, x, 8, true) }},
		} {
			s := mustSystem(t, machine.Bus4(), cfg)
			tc.setup(s)
			if got := s.StateOf(tc.cpu, x); got != Invalid {
				t.Fatalf("%d sets, %s: setup left cpu %d holding %v", cfg.Sets, tc.name, tc.cpu, got)
			}
			stats := append([]Stats(nil), s.perCPU...)
			view := viewOf(s)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var res AccessResult
			if s.ReadHit(tc.cpu, x, &res) {
				t.Fatalf("%d sets, %s: probe hit a line cpu %d does not hold", cfg.Sets, tc.name, tc.cpu)
			}
			if !reflect.DeepEqual(s.perCPU, stats) {
				t.Fatalf("%d sets, %s: probe changed the stats: %+v, was %+v", cfg.Sets, tc.name, s.perCPU, stats)
			}
			if got := viewOf(s); !reflect.DeepEqual(got, view) {
				t.Fatalf("%d sets, %s: probe changed the caches:\n%+v\nwas\n%+v", cfg.Sets, tc.name, got, view)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%d sets, %s: %v", cfg.Sets, tc.name, err)
			}
		}
	}
}

// TestCacheFootprint: a CPU's cache allocates a group on the first fill of
// one of its sets and never before. An idle CPU holds no group, lines in
// one group allocate that group alone, a probe that finds nothing
// allocates nothing, and another CPU's downgrade or invalidation of a
// line allocates nothing in the holder's cache. A cache with fewer sets
// than a group holds them all in one group.
func TestCacheFootprint(t *testing.T) {
	s := mustSystem(t, machine.Way16(), DefaultItanium())
	line := s.Config().LineSize
	held := func(want ...int) {
		t.Helper()
		for cpu := range s.perCPU {
			w := 0
			if cpu < len(want) {
				w = want[cpu]
			}
			if n := s.groupsHeld(cpu); n != w {
				t.Fatalf("cpu %d holds %d groups, want %d", cpu, n, w)
			}
		}
	}
	if n := len(s.groupsOf(0)); n != DefaultItanium().Sets/groupSets {
		t.Fatalf("%d groups per CPU, want %d", n, DefaultItanium().Sets/groupSets)
	}
	held()
	for l := int64(0); l < groupSets; l++ { // every set of group 0
		s.Access(0, l*line, 8, l%2 == 0)
	}
	held(1)
	var res AccessResult
	if s.ReadHit(1, 0, &res) || s.ReadHit(0, groupSets*line, &res) {
		t.Fatal("probe hit a line nobody holds")
	}
	held(1)
	s.Access(0, groupSets*line, 8, false) // the first line of group 1
	held(2)
	s.Access(1, 0, 8, false)                  // cpu 1 fills group 0, downgrading cpu 0's copy
	s.Access(2, 2*groupSets*line+64, 8, true) // cpu 2 fills group 2
	s.Access(2, groupSets*line, 8, true)      // and group 1, invalidating cpu 0's copy
	held(2, 1, 2)
	if s.StateOf(0, 0) != Shared || s.StateOf(0, groupSets*line) != Invalid {
		t.Fatalf("cpu 0 holds line 0 in %v and line %d in %v, want S and I", s.StateOf(0, 0), groupSets, s.StateOf(0, groupSets*line))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	small := mustSystem(t, machine.Bus4(), SmallCache())
	small.Access(0, 0, 8, false)
	if g := small.groupsOf(0); len(g) != 1 || len(g[0].lines) != SmallCache().Sets*SmallCache().Ways {
		t.Fatalf("SmallCache: %d groups per CPU, want one holding all %d ways", len(g), SmallCache().Sets*SmallCache().Ways)
	}
}
