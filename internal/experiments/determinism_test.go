package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"structlayout/internal/memo"
	"structlayout/internal/parallel"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// reducedSuite is the reduced-config figure suite exactly as the
// determinism golden records it: each figure's table in golden order.
type reducedSuite struct {
	fig8               *Figure
	fig8Text, fig9Text string
	fig10Text, robText string
}

// String renders the suite as the golden file holds it.
func (s *reducedSuite) String() string {
	return s.fig8Text + s.fig9Text + s.fig10Text + s.robText
}

// goldenReduced computes the reduced suite at the current worker limit and
// memo state.
func goldenReduced(t *testing.T) *reducedSuite {
	t.Helper()
	s, err := computeReduced()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func computeReduced() (*reducedSuite, error) {
	cfg := DefaultConfig()
	cfg.Runs = 2
	p, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	s := &reducedSuite{}
	if s.fig8, err = p.Fig8(); err != nil {
		return nil, err
	}
	f9, err := p.Fig9()
	if err != nil {
		return nil, err
	}
	f10, err := p.Fig10()
	if err != nil {
		return nil, err
	}
	rcfg := cfg
	rcfg.Runs = 1
	r, err := Robustness(rcfg, nil, []float64{0, 0.5}, nil)
	if err != nil {
		return nil, err
	}
	s.fig8Text, s.fig9Text, s.fig10Text, s.robText = s.fig8.String(), f9.String(), f10.String(), r.String()
	return s, nil
}

// coldRef is the uncached -j 1 reduced suite, the reference every
// determinism test compares against, with the memo stats of computing it.
var coldRef struct {
	once  sync.Once
	suite *reducedSuite
	stats memo.Stats
	err   error
}

// coldReference computes the uncached -j 1 reduced suite once per test
// binary. It clears the memo, detaches any disk tier and sets the worker
// limit itself, so neither test order nor -run filters change what it
// computes; it restores the worker limit and leaves the memo warm.
func coldReference(t *testing.T) (*reducedSuite, memo.Stats) {
	t.Helper()
	coldRef.once.Do(func() {
		old := parallel.Limit()
		defer parallel.SetLimit(old)
		if coldRef.err = memo.Shared().SetDir(""); coldRef.err != nil {
			return
		}
		memo.Shared().Clear()
		parallel.SetLimit(1)
		coldRef.suite, coldRef.err = computeReduced()
		coldRef.stats = memo.Shared().Stats()
	})
	if coldRef.err != nil {
		t.Fatal(coldRef.err)
	}
	return coldRef.suite, coldRef.stats
}

func TestGoldenReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("full reduced pipeline in -short mode")
	}
	ref, _ := coldReference(t)
	got := ref.String()
	path := filepath.Join("testdata", "golden_reduced.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("reduced pipeline output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDeterministicAcrossWorkerCounts is the parallel harness's core
// contract: the same pipeline at -j 1, -j 4 and -j GOMAXPROCS renders
// byte-identical figures. The -j 1 run is the shared cold reference, which
// TestGoldenReduced pins to the golden; the other worker counts must match
// it exactly. Run under -race this also exercises the pool for data races
// across the whole pipeline.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full reduced pipeline in -short mode")
	}
	ref, _ := coldReference(t)
	old := parallel.Limit()
	defer parallel.SetLimit(old)

	for _, lim := range []int{4, runtime.GOMAXPROCS(0)} {
		// Drop the measurement cache so every worker count simulates from
		// scratch: with it warm, the run would trivially replay cached
		// cells instead of exercising the pool.
		memo.Shared().Clear()
		parallel.SetLimit(lim)
		if out := goldenReduced(t).String(); out != ref.String() {
			t.Fatalf("-j %d output differs from -j 1:\n--- j=%d ---\n%s\n--- j=1 ---\n%s",
				lim, lim, out, ref.String())
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_reduced.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.String() != string(want) {
		t.Fatal("parallel-run output differs from committed golden")
	}
}

// fig810 renders Figures 8 and 10 from a fresh reduced pipeline — the two
// tables the memoization fast path must reproduce bit-for-bit.
func fig810(t *testing.T) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Runs = 2
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := p.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := p.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	return f8.String() + f10.String()
}

// TestDeterministicColdWarmCache is the memoization contract: the figure
// tables are byte-identical whether every measurement is simulated fresh,
// computed into a cold disk cache, or replayed from a warm one — at any
// worker count. Cached values round-trip through JSON, so any encoding
// loss or key collision would show up here as a table diff.
func TestDeterministicColdWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced pipeline ×4 in -short mode")
	}
	// The "uncached -j 1" variant is the shared cold reference.
	ref, refStats := coldReference(t)
	if refStats.Misses == 0 {
		t.Fatalf("uncached -j 1: expected fresh computation, stats %+v", refStats)
	}
	oldLimit := parallel.Limit()
	defer func() {
		parallel.SetLimit(oldLimit)
		if err := memo.Shared().SetDir(""); err != nil {
			t.Error(err)
		}
		memo.Shared().Clear()
	}()
	dir := t.TempDir()

	type variant struct {
		name string
		jobs int
		dir  string
	}
	variants := []variant{
		{"cold-disk -j 8", 8, dir},
		{"warm-disk -j 1", 1, dir},
		{"warm-disk -j 8", 8, dir},
	}
	want := ref.fig8Text + ref.fig10Text
	for i, v := range variants {
		memo.Shared().Clear() // every variant starts with a cold memory tier
		if err := memo.Shared().SetDir(v.dir); err != nil {
			t.Fatal(err)
		}
		parallel.SetLimit(v.jobs)
		out := fig810(t)
		st := memo.Shared().Stats()
		switch {
		case i == 0:
			if st.Misses == 0 {
				t.Fatalf("%s: expected fresh computation, stats %+v", v.name, st)
			}
		default:
			if st.Misses != 0 || st.DiskHits == 0 {
				t.Fatalf("%s: expected pure disk replay, stats %+v", v.name, st)
			}
		}
		if out != want {
			t.Fatalf("%s output differs from uncached -j 1:\n--- %s ---\n%s\n--- uncached -j 1 ---\n%s",
				v.name, v.name, out, want)
		}
	}
}
