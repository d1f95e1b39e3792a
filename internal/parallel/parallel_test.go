package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapGathersByIndex(t *testing.T) {
	for _, lim := range []int{1, 2, 4, 13} {
		SetLimit(lim)
		got, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("limit %d: %v", lim, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("limit %d: out[%d] = %d, want %d", lim, i, v, i*i)
			}
		}
	}
	SetLimit(runtime.GOMAXPROCS(0))
}

func TestMapSmallestIndexError(t *testing.T) {
	SetLimit(8)
	defer SetLimit(runtime.GOMAXPROCS(0))
	var ran atomic.Int64
	_, err := Map(50, func(i int) (int, error) {
		ran.Add(1)
		if i%7 == 3 {
			return 0, fmt.Errorf("item %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 3" {
		t.Fatalf("want error from smallest failing index 3, got %v", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("errors must not cancel remaining work: ran %d of 50", ran.Load())
	}
}

func TestMapZeroAndOne(t *testing.T) {
	if out, err := Map(0, func(int) (int, error) { return 1, nil }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v %v", out, err)
	}
	out, err := Map(1, func(int) (int, error) { return 7, nil })
	if err != nil || out[0] != 7 {
		t.Fatalf("n=1: %v %v", out, err)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	SetLimit(4)
	defer SetLimit(runtime.GOMAXPROCS(0))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in fn must re-raise on the caller")
		}
	}()
	Map(16, func(i int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
}

func TestNestedMapNoDeadlock(t *testing.T) {
	SetLimit(3)
	defer SetLimit(runtime.GOMAXPROCS(0))
	got, err := Map(8, func(i int) (int, error) {
		inner, err := Map(8, func(j int) (int, error) { return i*8 + j, nil })
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := 0
		for j := 0; j < 8; j++ {
			want += i*8 + j
		}
		if v != want {
			t.Fatalf("nested out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestConcurrencyBounded checks the global token bucket: even with many
// overlapping Map calls, no more than Limit() items run at once.
func TestConcurrencyBounded(t *testing.T) {
	const lim = 4
	SetLimit(lim)
	defer SetLimit(runtime.GOMAXPROCS(0))
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			Map(20, func(i int) (struct{}, error) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				for k := 0; k < 1000; k++ { // busy beat
					_ = k * k
				}
				inFlight.Add(-1)
				return struct{}{}, nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	// 3 caller goroutines each count as a worker even when the bucket is
	// empty, so the hard bound is lim + callers - 1.
	if p := peak.Load(); p > lim+2 {
		t.Fatalf("peak concurrency %d exceeds bound %d", p, lim+2)
	}
}

func TestSeedForDeterministicAndDistinct(t *testing.T) {
	a := SeedFor(20070311, 3, "A", "auto", "Superdome128")
	b := SeedFor(20070311, 3, "A", "auto", "Superdome128")
	if a != b {
		t.Fatal("SeedFor must be a pure function of its arguments")
	}
	seen := map[int64]string{}
	for _, s := range []string{"A", "B", "C"} {
		for _, v := range []string{"auto", "hotness"} {
			for i := 0; i < 4; i++ {
				k := SeedFor(20070311, i, s, v)
				id := fmt.Sprintf("%s/%s/%d", s, v, i)
				if prev, dup := seen[k]; dup {
					t.Fatalf("seed collision: %s and %s", prev, id)
				}
				seen[k] = id
			}
		}
	}
	// Label boundaries must matter: ("ab","c") != ("a","bc").
	if SeedFor(1, 0, "ab", "c") == SeedFor(1, 0, "a", "bc") {
		t.Fatal("label boundary not separated in hash")
	}
}

func TestSetLimitClamps(t *testing.T) {
	SetLimit(-3)
	if Limit() != 1 {
		t.Fatalf("Limit() = %d after SetLimit(-3), want 1", Limit())
	}
	SetLimit(runtime.GOMAXPROCS(0))
}
