// Package stats implements the small statistical toolkit the paper's
// evaluation protocol needs (§5): means over repeated runs with outliers
// removed, relative speedups, and the rank correlation used to check that
// high-concurrency line pairs are stable across collection machines (§4.3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for n < 2).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// RemoveOutliers drops values outside median ± k·IQR (Tukey-style fences
// around the median). It never removes everything: if the fence would drop
// all points, the input is returned unchanged. The paper removes outliers
// from its 10 SDET runs before averaging; k=1.5 is the conventional fence.
func RemoveOutliers(xs []float64, k float64) []float64 {
	n := len(xs)
	if n < 4 {
		return append([]float64(nil), xs...)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1 := quantileSorted(s, 0.25)
	q3 := quantileSorted(s, 0.75)
	iqr := q3 - q1
	lo, hi := q1-k*iqr, q3+k*iqr
	var out []float64
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return append([]float64(nil), xs...)
	}
	return out
}

// quantileSorted returns the q-quantile of a sorted slice via linear
// interpolation.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// TrimmedMean removes outliers with the k=1.5 fence and returns the mean of
// the remainder: the paper's run-aggregation procedure.
func TrimmedMean(xs []float64) float64 {
	return Mean(RemoveOutliers(xs, 1.5))
}

// SpeedupPercent returns the relative performance difference of measurement
// x over baseline b, in percent: positive means x is better (throughput
// metric: higher is better).
func SpeedupPercent(x, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (x - b) / b * 100
}

// SpearmanRank returns the Spearman rank correlation of paired samples.
// Ties receive their average rank. Returns an error when fewer than 2 pairs
// or mismatched lengths.
func SpearmanRank(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 pairs, got %d", len(x))
	}
	rx := ranks(x)
	ry := ranks(y)
	return pearson(rx, ry), nil
}

// ranks assigns average ranks (1-based) to xs.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// pearson returns the Pearson correlation coefficient.
func pearson(x, y []float64) float64 {
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// OverlapAtK returns |topK(x) ∩ topK(y)| / k for two keyed score maps:
// the fraction of the k highest-scored keys of x that are also among the k
// highest-scored keys of y. Used for the paper's observation that the
// high-concurrency source-line pairs stay "more or less the same" between
// the 4-way and 16-way collection machines.
func OverlapAtK[K comparable](x, y map[K]float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	tx := topKeys(x, k)
	ty := topKeys(y, k)
	set := make(map[K]bool, len(ty))
	for _, key := range ty {
		set[key] = true
	}
	hits := 0
	for _, key := range tx {
		if set[key] {
			hits++
		}
	}
	den := k
	if len(tx) < den {
		den = len(tx)
	}
	if den == 0 {
		return 0
	}
	return float64(hits) / float64(den)
}

func topKeys[K comparable](m map[K]float64, k int) []K {
	keys := make([]K, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if m[keys[a]] != m[keys[b]] {
			return m[keys[a]] > m[keys[b]]
		}
		return fmt.Sprint(keys[a]) < fmt.Sprint(keys[b]) // deterministic tiebreak
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}
