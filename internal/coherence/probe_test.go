package coherence

import (
	"reflect"
	"testing"

	"structlayout/internal/machine"
)

// probeCfg has four ways per set, so a line can sit in the MRU way, in a
// middle way or in the LRU way. Lines l, l+8, l+16 and l+24 share a set.
var probeCfg = Config{LineSize: 128, Sets: 8, Ways: 4}

// cacheView is everything a System's caches hold, comparable across two
// Systems: per CPU, each way's tag, state and directory entry's line.
type cacheView struct {
	lines [][]int64
	state [][]State
	info  [][]int64
	n     [][]int16
}

func viewOf(s *System) cacheView {
	var v cacheView
	for cpu := range s.caches {
		c := &s.caches[cpu]
		info := make([]int64, len(c.info))
		for i, li := range c.info {
			info[i] = -1
			if li != nil {
				info[i] = li.line
			}
		}
		v.lines = append(v.lines, append([]int64(nil), c.lines...))
		v.state = append(v.state, append([]State(nil), c.state...))
		v.info = append(v.info, info)
		v.n = append(v.n, append([]int16(nil), c.n...))
	}
	return v
}

// TestReadHitMatchesAccessInto: on a line resident in the reading CPU's
// cache, in the MRU, a middle or the LRU way and in M, E or S, the probe
// does exactly what AccessInto does: the same result, the same per-CPU
// counters, the same way order and states.
func TestReadHitMatchesAccessInto(t *testing.T) {
	const x = 3 * 128 // line 3; lines 11, 19 and 27 share its set
	for _, st := range []State{Modified, Exclusive, Shared} {
		for _, after := range []int{0, 1, 3} { // same-set lines read after x
			build := func() *System {
				s := mustSystem(t, machine.Bus4(), probeCfg)
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
					s.Access(0, x+int64(i)*8*128, 8, false)
				}
				if got := s.StateOf(0, x); got != st {
					t.Fatalf("setup: cpu 0 holds %v, want %v", got, st)
				}
				return s
			}
			full, probed := build(), build()
			var want, got AccessResult
			full.AccessInto(0, x+16, 8, false, &want)
			if !probed.ReadHit(0, x+16, &got) {
				t.Fatalf("%v, %d lines after: probe missed a resident line", st, after)
			}
			if want.Miss != MissNone {
				t.Fatalf("%v, %d lines after: AccessInto missed (%v)", st, after, want.Miss)
			}
			if got != want {
				t.Fatalf("%v, %d lines after: probe result %+v, AccessInto %+v", st, after, got, want)
			}
			if !reflect.DeepEqual(probed.perCPU, full.perCPU) {
				t.Fatalf("%v, %d lines after: per-CPU stats %+v, want %+v", st, after, probed.perCPU, full.perCPU)
			}
			if pv, fv := viewOf(probed), viewOf(full); !reflect.DeepEqual(pv, fv) {
				t.Fatalf("%v, %d lines after: caches differ:\nprobe  %+v\naccess %+v", st, after, pv, fv)
			}
			if err := probed.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReadHitLeavesMissesAlone: on a line the CPU does not hold — never
// cached, evicted, invalidated by another CPU's write, or on a CPU that has
// never accessed anything — the probe reports false and changes nothing.
func TestReadHitLeavesMissesAlone(t *testing.T) {
	const x = 5 * 128
	for _, tc := range []struct {
		name  string
		cpu   int
		setup func(s *System)
	}{
		{"never cached", 0, func(s *System) { s.Access(0, x+128, 8, false) }},
		{"evicted", 0, func(s *System) {
			for i := int64(0); i <= 4; i++ { // five lines through four ways
				s.Access(0, x+i*8*128, 8, false)
			}
		}},
		{"invalidated", 0, func(s *System) {
			s.Access(0, x, 8, false)
			s.Access(1, x+64, 8, true)
		}},
		{"idle cpu", 2, func(s *System) { s.Access(0, x, 8, true) }},
	} {
		s := mustSystem(t, machine.Bus4(), probeCfg)
		tc.setup(s)
		if got := s.StateOf(tc.cpu, x); got != Invalid {
			t.Fatalf("%s: setup left cpu %d holding %v", tc.name, tc.cpu, got)
		}
		stats := append([]Stats(nil), s.perCPU...)
		view := viewOf(s)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var res AccessResult
		if s.ReadHit(tc.cpu, x, &res) {
			t.Fatalf("%s: probe hit a line cpu %d does not hold", tc.name, tc.cpu)
		}
		if !reflect.DeepEqual(s.perCPU, stats) {
			t.Fatalf("%s: probe changed the stats: %+v, was %+v", tc.name, s.perCPU, stats)
		}
		if got := viewOf(s); !reflect.DeepEqual(got, view) {
			t.Fatalf("%s: probe changed the caches:\n%+v\nwas\n%+v", tc.name, got, view)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
