package experiments

import (
	"testing"

	"structlayout/internal/memo"
)

// TestCrossFigureMemoSharing pins the figure suite's cache economics,
// the conclusion of auditing Figure 8's 11 cold misses against Figure 10's
// 6 hits: every Figure 8 cell (baseline + {auto,hotness}×5 structs on
// Superdome128) is a genuinely distinct measurement — there is no
// canonicalization gap to close — while Figure 10 shares its baseline and
// five auto cells with Figure 8 byte-for-byte, so identical effective
// configurations across figures must resolve to identical cache entries.
// It also pins the mode separation: a sampled pass may never be served an
// exact figure's entries (or vice versa), because SimConfig is part of the
// measurement key.
func TestCrossFigureMemoSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	p := getPipeline(t)
	memo.Shared().Clear()
	last := memo.Shared().Stats()
	delta := func() memo.Stats {
		now := memo.Shared().Stats()
		d := now.Sub(last)
		last = now
		return d
	}

	if _, err := p.Fig8(); err != nil {
		t.Fatal(err)
	}
	if d := delta(); d.Misses != 11 || d.Hits() != 0 {
		t.Fatalf("cold Fig8: %d misses / %d hits, want 11 / 0 (baseline + 2 variants × 5 structs, all distinct)", d.Misses, d.Hits())
	}

	// Fig10 reuses Fig8's Superdome128 baseline and auto cells; only the
	// five best-layout cells are new.
	if _, err := p.Fig10(); err != nil {
		t.Fatal(err)
	}
	if d := delta(); d.Misses != 5 || d.Hits() != 6 {
		t.Fatalf("Fig10 after Fig8: %d misses / %d hits, want 5 / 6 (baseline + auto×5 shared)", d.Misses, d.Hits())
	}

	// Fig9 runs on Bus4: a different topology is a different measurement,
	// so nothing can be shared.
	if _, err := p.Fig9(); err != nil {
		t.Fatal(err)
	}
	if d := delta(); d.Misses != 6 || d.Hits() != 0 {
		t.Fatalf("Fig9: %d misses / %d hits, want 6 / 0 (Bus4 shares nothing with Superdome128)", d.Misses, d.Hits())
	}

	// A repeated figure replays entirely from cache.
	if _, err := p.Fig8(); err != nil {
		t.Fatal(err)
	}
	if d := delta(); d.Misses != 0 || d.Hits() != 11 {
		t.Fatalf("warm Fig8: %d misses / %d hits, want 0 / 11", d.Misses, d.Hits())
	}
}
