package memo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structlayout/internal/coherence"
	"structlayout/internal/faults"
	"structlayout/internal/ir"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
)

func testStruct() *ir.StructType {
	return ir.NewStruct("S",
		ir.Field{Name: "a", Size: 8, Align: 8},
		ir.Field{Name: "b", Size: 4, Align: 4},
		ir.Field{Name: "c", Size: 2, Align: 2},
	)
}

func testLayouts(t testing.TB) map[string]*layout.Layout {
	t.Helper()
	st := testStruct()
	base, err := layout.Original(st, 128)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := layout.FromOrder(st, "alt", []int{2, 1, 0}, 128)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*layout.Layout{"A": base, "B": alt}
}

// keyOf builds a representative measurement key the way workload does.
func keyOf(t testing.TB, ls map[string]*layout.Layout, seed int64, spec *faults.Spec) Key {
	t.Helper()
	h := NewHasher()
	h.Str("kind", "measure")
	h.Layouts("layouts", ls)
	h.Topology("topo", machine.Bus4())
	h.CacheConfig("cache", coherence.DefaultItanium())
	h.Int("runs", 3)
	h.Int("seed", seed)
	h.FaultSpec("inject", spec)
	return h.Sum()
}

// TestKeyIterationOrderInvariant rebuilds the same logical layout map many
// times; Go randomizes map iteration order, so any order sensitivity in
// Hasher.Layouts would produce differing keys across attempts.
func TestKeyIterationOrderInvariant(t *testing.T) {
	want := keyOf(t, testLayouts(t), 42, nil)
	for i := 0; i < 20; i++ {
		got := keyOf(t, testLayouts(t), 42, nil)
		if got != want {
			t.Fatalf("attempt %d: key differs for identical layout map: %s vs %s", i, got, want)
		}
	}
}

// TestKeyLabelRenameInvariant: renaming a layout (its display Name) without
// changing byte placement must not change the key — the cached measurement
// depends only on where bytes live.
func TestKeyRenameInvariant(t *testing.T) {
	ls1 := testLayouts(t)
	ls2 := testLayouts(t)
	for _, l := range ls2 {
		l.Name = "renamed-" + l.Name
	}
	if keyOf(t, ls1, 42, nil) != keyOf(t, ls2, 42, nil) {
		t.Fatal("key changed when only layout display names changed")
	}
}

// TestKeyOrderPermutationEquivalence: two layouts derived through different
// Order permutations that happen to land every field at the same offset
// hash equal (Order excluded), while a permutation that moves bytes does
// not.
func TestKeyOrderPermutationEquivalence(t *testing.T) {
	st := ir.NewStruct("U",
		ir.Field{Name: "x", Size: 8, Align: 8},
		ir.Field{Name: "y", Size: 8, Align: 8},
	)
	a, err := layout.FromOrder(st, "a", []int{0, 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := layout.FromOrder(st, "b", []int{1, 0}, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Same bytes, forced: copy a's offsets into a layout built the other way.
	c := *b
	c.Offsets = append([]int(nil), a.Offsets...)
	ka := keyOf(t, map[string]*layout.Layout{"L": a}, 1, nil)
	kb := keyOf(t, map[string]*layout.Layout{"L": b}, 1, nil)
	kc := keyOf(t, map[string]*layout.Layout{"L": &c}, 1, nil)
	if ka == kb {
		t.Fatal("layouts with different byte placement collided")
	}
	if ka != kc {
		t.Fatal("layouts with identical byte placement but different Order hashed differently")
	}
}

// TestKeySensitivity: every input that can change a measurement must change
// the key.
func TestKeySensitivity(t *testing.T) {
	ls := testLayouts(t)
	base := keyOf(t, ls, 42, nil)

	if keyOf(t, ls, 43, nil) == base {
		t.Fatal("seed change did not change key")
	}

	spec := faults.New(7)
	spec.Severity[faults.Kinds[0]] = 0.5
	if keyOf(t, ls, 42, spec) == base {
		t.Fatal("fault spec did not change key")
	}
	spec2 := faults.New(8)
	spec2.Severity[faults.Kinds[0]] = 0.5
	if keyOf(t, ls, 42, spec) == keyOf(t, ls, 42, spec2) {
		t.Fatal("fault specs differing only in seed collided")
	}
	spec3 := faults.New(7)
	spec3.Severity[faults.Kinds[0]] = 0.9
	if keyOf(t, ls, 42, spec) == keyOf(t, ls, 42, spec3) {
		t.Fatal("fault specs differing only in severity collided")
	}

	// Identity spec ≡ nil spec: both inject nothing.
	if keyOf(t, ls, 42, faults.New(5)) != base {
		t.Fatal("identity fault spec keyed differently from nil")
	}

	// Different label for the same layout is a different request.
	one := map[string]*layout.Layout{"A": ls["A"]}
	oneRenamedLabel := map[string]*layout.Layout{"Z": ls["A"]}
	if keyOf(t, one, 42, nil) == keyOf(t, oneRenamedLabel, 42, nil) {
		t.Fatal("map label change collided (labels are part of the request)")
	}

	// Topology and cache geometry.
	h1 := NewHasher()
	h1.Topology("topo", machine.Bus4())
	h2 := NewHasher()
	h2.Topology("topo", machine.Way16())
	if h1.Sum() == h2.Sum() {
		t.Fatal("different topologies collided")
	}
	h3 := NewHasher()
	h3.CacheConfig("c", coherence.DefaultItanium())
	h4 := NewHasher()
	h4.CacheConfig("c", coherence.SmallCache())
	if h3.Sum() == h4.Sum() {
		t.Fatal("different cache configs collided")
	}
}

// TestKeyNoConcatenationAmbiguity: tagged length-prefixed records must keep
// adjacent strings from sliding into each other.
func TestKeyNoConcatenationAmbiguity(t *testing.T) {
	h1 := NewHasher()
	h1.Str("t", "ab")
	h1.Str("t", "c")
	h2 := NewHasher()
	h2.Str("t", "a")
	h2.Str("t", "bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("string boundary ambiguity")
	}
}

func TestCacheDoSingleFlight(t *testing.T) {
	c := New()
	h := NewHasher()
	h.Str("k", "x")
	k := h.Sum()

	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Do(k, func() ([]byte, error) {
				calls.Add(1)
				return []byte("val"), nil
			})
			if err != nil || string(v) != "val" {
				t.Errorf("Do: %q, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits()+1 < 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss", st)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := New()
	h := NewHasher()
	h.Str("k", "err")
	k := h.Sum()
	calls := 0
	_, err := c.Do(k, func() ([]byte, error) { calls++; return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("want error")
	}
	v, err := c.Do(k, func() ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry: %q, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
}

// TestCacheDoPanicLandsFlight: a computation that panics re-raises on its
// caller, fails a caller waiting on the same flight instead of leaving it
// blocked, and leaves nothing cached, so the next call computes afresh.
func TestCacheDoPanicLandsFlight(t *testing.T) {
	c := New()
	h := NewHasher()
	h.Str("k", "panic")
	k := h.Sum()

	computing := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(k, func() ([]byte, error) {
			close(computing)
			<-release
			panic("boom")
		})
	}()
	<-computing
	waited := make(chan error, 1)
	go func() {
		_, err := c.Do(k, func() ([]byte, error) { return []byte("late"), nil })
		waited <- err
	}()
	// Give the waiter time to join the flight (one that arrives after the
	// flight lands computes afresh instead, which the test also accepts).
	time.Sleep(20 * time.Millisecond)
	close(release)
	if p := <-recovered; p != "boom" {
		t.Fatalf("computing caller recovered %v, want the panic", p)
	}
	if err := <-waited; err != nil && !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("waiter: %v", err)
	}
	v, err := c.Do(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || (string(v) != "ok" && string(v) != "late") {
		t.Fatalf("after the panic: %q, %v", v, err)
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1 := New()
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	h := NewHasher()
	h.Str("k", "disk")
	k := h.Sum()
	if _, err := c1.Do(k, func() ([]byte, error) { return []byte(`"persisted"`), nil }); err != nil {
		t.Fatal(err)
	}

	// Fresh cache, same dir: value must come from disk without compute.
	c2 := New()
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	v, err := c2.Do(k, func() ([]byte, error) {
		t.Error("compute ran despite disk entry")
		return nil, nil
	})
	if err != nil || string(v) != `"persisted"` {
		t.Fatalf("disk hit: %q, %v", v, err)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 misses", st)
	}

	// Second lookup is a memory hit (promoted).
	if _, err := c2.Do(k, func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats = %+v, want 1 mem hit after promotion", st)
	}

	// Corrupt entries degrade to recomputation, not failure.
	c3 := New()
	if err := c3.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("glob: %v %v", ents, err)
	}
	if err := os.Remove(ents[0]); err != nil {
		t.Fatal(err)
	}
	v, err = c3.Do(k, func() ([]byte, error) { return []byte(`"recomputed"`), nil })
	if err != nil || string(v) != `"recomputed"` {
		t.Fatalf("recompute after removal: %q, %v", v, err)
	}
}

func TestCacheClear(t *testing.T) {
	c := New()
	h := NewHasher()
	h.Str("k", "clear")
	k := h.Sum()
	if _, err := c.Do(k, func() ([]byte, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	calls := 0
	if _, err := c.Do(k, func() ([]byte, error) { calls++; return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("Clear did not drop the memory tier")
	}
	if st := c.Stats(); st.Misses != 1 || st.MemHits != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}
