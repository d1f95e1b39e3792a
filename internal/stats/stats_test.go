package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5) {
		t.Fatalf("Mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/degenerate cases wrong")
	}
}

func TestRemoveOutliers(t *testing.T) {
	xs := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 500}
	out := RemoveOutliers(xs, 1.5)
	for _, x := range out {
		if x == 500 {
			t.Fatal("outlier 500 survived")
		}
	}
	if len(out) != 9 {
		t.Fatalf("kept %d values, want 9", len(out))
	}
	// Small inputs pass through.
	small := []float64{1, 2, 3}
	if got := RemoveOutliers(small, 1.5); len(got) != 3 {
		t.Fatalf("small input trimmed: %v", got)
	}
}

func TestRemoveOutliersNeverEmpty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		out := RemoveOutliers(xs, 1.5)
		return len(out) >= 1 && len(out) <= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 1000}
	if got := TrimmedMean(xs); !almostEq(got, 10) {
		t.Fatalf("TrimmedMean = %v, want 10", got)
	}
}

func TestSpeedupPercent(t *testing.T) {
	if got := SpeedupPercent(103.2, 100); !almostEq(got, 3.2) {
		t.Fatalf("SpeedupPercent = %v", got)
	}
	if got := SpeedupPercent(50, 100); !almostEq(got, -50) {
		t.Fatalf("SpeedupPercent = %v", got)
	}
	if got := SpeedupPercent(1, 0); got != 0 {
		t.Fatalf("zero baseline: %v", got)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	r, err := SpearmanRank(x, y)
	if err != nil || !almostEq(r, 1) {
		t.Fatalf("r=%v err=%v", r, err)
	}
	rev := []float64{50, 40, 30, 20, 10}
	r, _ = SpearmanRank(x, rev)
	if !almostEq(r, -1) {
		t.Fatalf("reversed r=%v", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{1, 2, 2, 3}
	r, err := SpearmanRank(x, y)
	if err != nil || !almostEq(r, 1) {
		t.Fatalf("tied r=%v err=%v", r, err)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := SpearmanRank([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for n<2")
	}
	if _, err := SpearmanRank([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestSpearmanRange(t *testing.T) {
	f := func(pairs []struct{ X, Y float64 }) bool {
		if len(pairs) < 2 {
			return true
		}
		var x, y []float64
		for _, p := range pairs {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				return true
			}
			x = append(x, p.X)
			y = append(y, p.Y)
		}
		r, err := SpearmanRank(x, y)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapAtK(t *testing.T) {
	x := map[string]float64{"a": 10, "b": 9, "c": 8, "d": 1}
	y := map[string]float64{"a": 100, "b": 90, "z": 80, "c": 2}
	if got := OverlapAtK(x, y, 3); !almostEq(got, 2.0/3.0) {
		t.Fatalf("OverlapAtK = %v", got)
	}
	if got := OverlapAtK(x, x, 4); !almostEq(got, 1) {
		t.Fatalf("self overlap = %v", got)
	}
	if got := OverlapAtK(x, y, 0); got != 0 {
		t.Fatalf("k=0 overlap = %v", got)
	}
}
