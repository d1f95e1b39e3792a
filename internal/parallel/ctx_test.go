package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapCtxUncancelledMatchesMap pins that an uncancelled context changes
// nothing: same results, same error selection, at several worker counts.
func TestMapCtxUncancelledMatchesMap(t *testing.T) {
	defer SetLimit(Limit())
	for _, lim := range []int{1, 2, 8} {
		SetLimit(lim)
		fn := func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("item 7")
			}
			return i * i, nil
		}
		want, wantErr := Map(16, fn)
		got, gotErr := MapCtx(context.Background(), 16, func(_ context.Context, i int) (int, error) { return fn(i) })
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("lim %d: err %v vs %v", lim, wantErr, gotErr)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("lim %d item %d: %d vs %d", lim, i, want[i], got[i])
			}
		}
	}
}

// TestMapCtxCancelStopsDequeue cancels the context from inside an early
// item and asserts that later items are never dequeued: a timed-out
// request must stop consuming workers instead of running its remaining
// work to completion.
func TestMapCtxCancelStopsDequeue(t *testing.T) {
	defer SetLimit(Limit())
	for _, lim := range []int{1, 4} {
		SetLimit(lim)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 1000
		_, err := MapCtx(ctx, n, func(ctx context.Context, i int) (struct{}, error) {
			ran.Add(1)
			if i < lim {
				// The first items (one per worker at most) cancel the batch.
				cancel()
			} else {
				// Any other item that slipped in before the cancellation was
				// visible parks until it is, so the count below is exact:
				// items never race ahead of the cancel signal.
				<-ctx.Done()
			}
			return struct{}{}, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("lim %d: err = %v, want context.Canceled", lim, err)
		}
		// Every worker may finish the item it already dequeued plus at most
		// one more it grabbed before observing the cancellation.
		if got := ran.Load(); got > int64(3*lim) {
			t.Fatalf("lim %d: %d items ran after cancellation (want <= %d)", lim, got, 3*lim)
		}
		cancel()
	}
}

// TestMapCtxCancelledBeforeCallRunsNothing: a dead context on entry runs
// zero items and reports the context error.
func TestMapCtxCancelledBeforeCallRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 64, func(_ context.Context, i int) (struct{}, error) {
		ran.Add(1)
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

// TestMapCtxItemErrorWinsOverLaterSkips: an item's own error keeps the
// smallest-failing-index rule even when cancellation also skipped items.
func TestMapCtxItemErrorWinsOverLaterSkips(t *testing.T) {
	defer SetLimit(Limit())
	SetLimit(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 10, func(_ context.Context, i int) (struct{}, error) {
		if i == 2 {
			cancel()
			return struct{}{}, boom
		}
		return struct{}{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the item's own error", err)
	}
}

// TestMapCtxPropagatesCtx pins that items receive the caller's context.
func TestMapCtxPropagatesCtx(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	_, err := MapCtx(ctx, 4, func(ctx context.Context, i int) (struct{}, error) {
		if ctx.Value(key{}) != "v" {
			return struct{}{}, fmt.Errorf("item %d: context not propagated", i)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
