// Package parallel fans independent, index-addressed work items out over a
// bounded worker pool without giving up determinism. Results are gathered by
// item index, never by completion order, so callers that derive all per-item
// state (seeds, RNG streams) from the index alone produce byte-identical
// output at any worker count, including 1.
//
// The pool is a process-global token bucket: a Map/MapCtx call runs items on
// the calling goroutine and additionally spawns a helper goroutine per free
// token. Nested calls therefore never deadlock — when the bucket is empty the
// inner call simply degrades to an inline serial loop — and the total number
// of goroutines doing work at any instant never exceeds Limit().
package parallel

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	mu     sync.Mutex
	limit  = runtime.GOMAXPROCS(0)
	bucket = newBucket(limit)
)

// newBucket returns a token channel holding n-1 tokens: the caller of
// Map/MapCtx always counts as one worker, so n-1 helpers may join it.
func newBucket(n int) chan struct{} {
	b := make(chan struct{}, n-1+1) // never zero-capacity
	for i := 0; i < n-1; i++ {
		b <- struct{}{}
	}
	return b
}

// SetLimit sets the maximum number of concurrently running work items across
// all Map/MapCtx calls in the process. Values below 1 are clamped to 1
// (pure serial, inline execution). Calls already in flight keep the limit
// they started with.
func SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	limit = n
	bucket = newBucket(n)
}

// Limit reports the current worker limit.
func Limit() int {
	mu.Lock()
	defer mu.Unlock()
	return limit
}

func current() (int, chan struct{}) {
	mu.Lock()
	defer mu.Unlock()
	return limit, bucket
}

type panicBox struct{ val any }

// Map evaluates fn(0..n-1) with at most Limit() items in flight and returns
// the results indexed by item. If any item returns an error, Map returns the
// error of the smallest failing index (a deterministic choice) after all
// items have run; it never cancels remaining work, so side effects are
// identical regardless of which item failed first in wall-clock time. A
// panic inside fn is re-raised on the calling goroutine after all workers
// have stopped.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with cooperative cancellation: once ctx is cancelled, no
// further work item is dequeued — items already running finish (an item is
// never interrupted mid-run), and the skipped items' slots keep their zero
// values. When cancellation prevented at least one item from running,
// MapCtx returns ctx's error, so a caller can never mistake a partial
// gather for a complete one; an item's own error still wins the
// smallest-failing-index rule among the items that ran. With an
// uncancelled ctx, MapCtx behaves exactly like Map, so seeded callers keep
// byte-identical output at any worker count. A nil ctx means
// context.Background().
func MapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	errs := make([]error, n)
	lim, tok := current()

	var panicked atomic.Pointer[panicBox]
	var skipped atomic.Bool
	runItem := func(i int) {
		if ctx.Err() != nil {
			skipped.Store(true)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicBox{val: r})
			}
		}()
		out[i], errs[i] = fn(ctx, i)
	}

	if lim <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			runItem(i)
		}
	} else {
		var next atomic.Int64
		work := func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runItem(i)
			}
		}
		var wg sync.WaitGroup
		// Spawn one helper per immediately-available token, at most n-1.
	spawn:
		for h := 0; h < n-1; h++ {
			select {
			case <-tok:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { tok <- struct{}{} }()
					work()
				}()
			default:
				break spawn
			}
		}
		work() // the caller is always a worker
		wg.Wait()
	}

	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	if skipped.Load() {
		return out, ctx.Err()
	}
	return out, nil
}

// SeedFor derives a per-item RNG seed from a base seed, a run index, and any
// number of identifying labels (struct, variant, machine, ...). The stream is
// a pure function of its arguments — never of scheduling — so seeded work
// stays deterministic under any parallelism. Distinct label tuples get
// decorrelated streams via FNV-1a.
func SeedFor(base int64, runIdx int, labels ...string) int64 {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "#%d", runIdx)
	return base ^ int64(h.Sum64())
}
