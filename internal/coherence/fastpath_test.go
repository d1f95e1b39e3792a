package coherence

import (
	"testing"

	"structlayout/internal/machine"
)

// These tests target the MRU repeat-access fast path: every scenario where
// the cached MRU slot could go stale between two same-line accesses by one
// CPU must still produce the full-path outcome.

func fpSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(machine.Bus4(), SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFastPathRemoteInvalidationBetweenRepeats: CPU 0 writes a line twice,
// but CPU 1 writes it in between. The second CPU-0 access must see a
// coherence miss, not a stale fast-path hit.
func TestFastPathRemoteInvalidationBetweenRepeats(t *testing.T) {
	sys := fpSystem(t)
	if r := sys.Access(0, 0, 8, true); r.Miss != MissCold {
		t.Fatalf("first write: %v", r.Miss)
	}
	if r := sys.Access(0, 0, 8, true); r.Miss != MissNone {
		t.Fatalf("repeat write should hit: %v", r.Miss)
	}
	if r := sys.Access(1, 0, 8, true); r.Miss != MissCold {
		t.Fatalf("remote write: %v", r.Miss)
	}
	if r := sys.Access(0, 0, 8, true); r.Miss != MissCoherence {
		t.Fatalf("access after remote invalidation must be a coherence miss, got %v", r.Miss)
	}
}

// TestFastPathRemoteDowngradeBetweenRepeats: CPU 0 holds Modified; CPU 1
// reads (downgrading CPU 0 to Shared in place); CPU 0's next write must
// take the upgrade path, invalidating CPU 1.
func TestFastPathRemoteDowngradeBetweenRepeats(t *testing.T) {
	sys := fpSystem(t)
	sys.Access(0, 0, 8, true)
	if r, want := sys.Access(1, 0, 8, false), sys.topo.TransferLatency(0, 1); r.Latency != want {
		t.Fatalf("remote read latency = %d, want %d (supplied by the owner's cache)", r.Latency, want)
	}
	if got := sys.StateOf(0, 0); got != Shared {
		t.Fatalf("owner state after remote read = %v, want S", got)
	}
	r := sys.Access(0, 0, 8, true)
	if r.Miss != MissUpgrade || r.Invalidations != 1 {
		t.Fatalf("write after downgrade = %v (%d invalidations), want upgrade invalidating 1", r.Miss, r.Invalidations)
	}
}

// TestFastPathSilentUpgradeRepeat: a read then write by the same CPU uses
// the silent E→M transition through the fast path; a third write stays M.
func TestFastPathSilentUpgradeRepeat(t *testing.T) {
	sys := fpSystem(t)
	sys.Access(0, 0, 8, false)
	if got := sys.StateOf(0, 0); got != Exclusive {
		t.Fatalf("after lone read: %v, want E", got)
	}
	if r := sys.Access(0, 0, 8, true); r.Miss != MissNone {
		t.Fatalf("silent E→M upgrade should be a hit, got %v", r.Miss)
	}
	if got := sys.StateOf(0, 0); got != Modified {
		t.Fatalf("after write: %v, want M", got)
	}
	if r := sys.Access(0, 0, 8, true); r.Miss != MissNone {
		t.Fatalf("repeat M write should hit, got %v", r.Miss)
	}
}

// TestFastPathEvictionBetweenRepeats: filling the set evicts the line; the
// next same-line access must be a replacement miss, not a hit on a
// displaced MRU slot.
func TestFastPathEvictionBetweenRepeats(t *testing.T) {
	sys := fpSystem(t) // SmallCache: 8 sets, 2 ways
	cfg := sys.Config()
	setSpan := cfg.LineSize * int64(cfg.Sets)
	sys.Access(0, 0, 8, true)
	// Two more lines mapping to set 0 evict line 0 (2-way set).
	sys.Access(0, setSpan, 8, true)
	sys.Access(0, 2*setSpan, 8, true)
	if r := sys.Access(0, 0, 8, true); r.Miss != MissReplacement {
		t.Fatalf("access after eviction = %v, want replacement miss", r.Miss)
	}
}

// TestFastPathFalseSharingRecording: repeat Modified writes through the
// fast path must keep recording their byte ranges, so a later disjoint
// reader still classifies false sharing correctly.
func TestFastPathFalseSharingRecording(t *testing.T) {
	sys := fpSystem(t)
	sys.Access(0, 0, 8, true)
	sys.Access(0, 8, 8, true) // same line, fast path, must update lastWrite
	r := sys.Access(1, 64, 8, false)
	if r.Miss != MissCold {
		t.Fatalf("cold read: %v", r.Miss)
	}
	// CPU 1 now shares; CPU 0 writes bytes [8,16) again, invalidating 1.
	sys.Access(0, 8, 8, true)
	// CPU 1 re-reads disjoint bytes [64,72): false sharing against [8,16).
	r = sys.Access(1, 64, 8, false)
	if r.Miss != MissCoherence || !r.FalseSharing {
		t.Fatalf("disjoint re-read = %v (fs=%v), want coherence miss with false sharing", r.Miss, r.FalseSharing)
	}
	if r.WriterAddr != 8 || r.WriterLen != 8 {
		t.Fatalf("recorded writer range = [%d,+%d), want [8,+8)", r.WriterAddr, r.WriterLen)
	}
}
