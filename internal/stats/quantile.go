package stats

import (
	"math"
	"slices"
)

// Quantile returns the p-th sample quantile of xs (0 <= p <= 1) using linear
// interpolation between order statistics (Hyndman-Fan type 7, the R and
// NumPy default). The input need not be sorted.
func Quantile(xs []float64, p float64) float64 {
	return QuantileSorted(SortedCopy(xs), p)
}

// QuantileSorted is Quantile for already ascending-sorted input; it avoids
// the O(n log n) copy on hot paths such as stopping-rule evaluation.
func QuantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	// Convex combination form: robust to overflow when the two order
	// statistics are near opposite extremes of the float64 range.
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Median returns the sample median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns the interquartile range Q3 - Q1.
func IQR(xs []float64) float64 {
	s := SortedCopy(xs)
	return QuantileSorted(s, 0.75) - QuantileSorted(s, 0.25)
}

// rankPair carries a value with its original position through the sort.
type rankPair struct {
	v float64
	i int
}

// Rank assigns average ranks (1-based) to xs, resolving ties by midrank.
// This is the ranking used by the Wilcoxon signed-rank test; the
// Mann-Whitney U test ranks its two sorted sides by merging them instead.
// The ranks of NaNs are undefined.
//
// It sorts a value/index pair slice with slices.SortFunc rather than a
// closure-capturing sort.Slice over an index permutation: the generic sort
// needs no interface boxing or reflect-based swapper and the comparator
// touches its operands directly instead of double-indirecting through the
// captured sample slice, halving the allocations per call
// (BenchmarkRank/pairs vs BenchmarkRank/sortslice, with ReportAllocs).
func Rank(xs []float64) []float64 {
	n := len(xs)
	pairs := make([]rankPair, n)
	for i, x := range xs {
		pairs[i] = rankPair{v: x, i: i}
	}
	slices.SortFunc(pairs, func(a, b rankPair) int {
		// Plain comparisons, not cmp.Compare: the NaN-ordering branches it
		// adds cost ~15% on this hot path, and ranking NaNs is undefined
		// for the Wilcoxon inputs this serves.
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && pairs[j+1].v == pairs[i].v {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[pairs[k].i] = avg
		}
		i = j + 1
	}
	return ranks
}
