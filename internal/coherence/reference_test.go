package coherence

import (
	"math/rand"
	"testing"

	"structlayout/internal/machine"
)

// refModel is a deliberately naive MESI reference: per-line per-CPU states
// in maps, no capacity limits, the protocol transcribed directly from a
// textbook table. With an effectively infinite cache (no evictions), the
// production simulator must agree with it on every observable: hit/miss,
// miss classification, invalidation counts, and final line states.
type refModel struct {
	n     int
	state map[int64][]State
	ever  map[int64][]bool
	inval map[int64][]bool
}

func newRefModel(n int) *refModel {
	return &refModel{
		n:     n,
		state: map[int64][]State{},
		ever:  map[int64][]bool{},
		inval: map[int64][]bool{},
	}
}

func (m *refModel) line(l int64) ([]State, []bool, []bool) {
	if m.state[l] == nil {
		m.state[l] = make([]State, m.n)
		m.ever[l] = make([]bool, m.n)
		m.inval[l] = make([]bool, m.n)
	}
	return m.state[l], m.ever[l], m.inval[l]
}

// access returns (miss kind, invalidations).
func (m *refModel) access(cpu int, l int64, write bool) (MissKind, int) {
	st, ever, inval := m.line(l)
	present := st[cpu] != Invalid

	var kind MissKind
	switch {
	case present:
		if !write || st[cpu] == Modified {
			kind = MissNone
		} else if st[cpu] == Exclusive {
			kind = MissNone // silent E->M upgrade
		} else {
			kind = MissUpgrade
		}
	case !ever[cpu]:
		kind = MissCold
	case inval[cpu]:
		kind = MissCoherence
	default:
		kind = MissReplacement // unreachable with infinite cache
	}

	invalidations := 0
	if write {
		for o := 0; o < m.n; o++ {
			if o != cpu && st[o] != Invalid {
				st[o] = Invalid
				inval[o] = true
				invalidations++
			}
		}
		st[cpu] = Modified
	} else if !present {
		// Read miss: join as Shared if anyone holds it, else Exclusive.
		shared := false
		for o := 0; o < m.n; o++ {
			if o != cpu && st[o] != Invalid {
				shared = true
				if st[o] == Modified || st[o] == Exclusive {
					st[o] = Shared
				}
			}
		}
		if shared {
			st[cpu] = Shared
		} else {
			st[cpu] = Exclusive
		}
	}
	ever[cpu] = true
	inval[cpu] = false
	return kind, invalidations
}

// TestAgainstReferenceModel drives both models with identical random access
// sequences (full 8-byte line writes, so no false-sharing classification
// ambiguity) and requires bit-identical observable behaviour.
func TestAgainstReferenceModel(t *testing.T) {
	topo := machine.Way16()
	// Effectively infinite cache: every line maps somewhere with room.
	cfg := Config{LineSize: 128, Sets: 1024, Ways: 64}
	sys := mustSystem(t, topo, cfg)
	ref := newRefModel(topo.NumCPUs())

	rng := rand.New(rand.NewSource(20070311))
	for i := 0; i < 100000; i++ {
		cpu := rng.Intn(topo.NumCPUs())
		line := int64(rng.Intn(64))
		write := rng.Intn(3) == 0

		if !write && rng.Intn(4) == 0 {
			// The run-ahead probe: it completes the read exactly when the
			// reference holds the line, as a hit; otherwise the read takes
			// the full path below.
			st, _, _ := ref.line(line)
			var res AccessResult
			hit := sys.ReadHit(cpu, line*cfg.LineSize, &res)
			if hit != (st[cpu] != Invalid) {
				t.Fatalf("step %d (cpu %d line %d): probe hit %v, reference state %v", i, cpu, line, hit, st[cpu])
			}
			if hit {
				if kind, inv := ref.access(cpu, line, false); kind != MissNone || inv != 0 || res.Miss != MissNone {
					t.Fatalf("step %d: probe hit, reference says %v (%d invalidations)", i, kind, inv)
				}
				continue
			}
		}

		got := sys.Access(cpu, line*cfg.LineSize, 8, write)
		wantKind, wantInv := ref.access(cpu, line, write)

		if got.Miss != wantKind {
			t.Fatalf("step %d (cpu %d line %d write %v): miss %v, reference says %v",
				i, cpu, line, write, got.Miss, wantKind)
		}
		if got.Invalidations != wantInv {
			t.Fatalf("step %d: invalidations %d, reference says %d", i, got.Invalidations, wantInv)
		}
	}
	// Final states agree everywhere.
	for line, states := range ref.state {
		for cpu, want := range states {
			got := sys.StateOf(cpu, line*cfg.LineSize)
			// The production model may hold S where the reference computed
			// S; E/M must match exactly; Invalid must match.
			if got != want {
				t.Fatalf("final state line %d cpu %d: %v, reference %v", line, cpu, got, want)
			}
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
