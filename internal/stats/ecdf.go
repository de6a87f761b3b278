package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a sample.
// It is the core object behind the paper's distribution-based similarity
// metric (the Kolmogorov-Smirnov statistic, §V-A3).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs; the input is copied and sorted.
func NewECDF(xs []float64) *ECDF {
	return &ECDF{sorted: SortedCopy(xs)}
}

// N returns the number of observations.
func (e *ECDF) N() int { return len(e.sorted) }

// Eval returns F(x) = (#observations <= x) / n.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// over equal values so the ECDF is right-continuous (counts <= x).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Values returns the sorted underlying sample (shared, do not mutate).
func (e *ECDF) Values() []float64 { return e.sorted }

// Quantile returns the p-th quantile (type-7 interpolation) of the sample.
func (e *ECDF) Quantile(p float64) float64 { return QuantileSorted(e.sorted, p) }

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic
// sup_x |F1(x) - F2(x)| between the two samples, computed exactly by the
// classic merge walk in O(n+m) after sorting.
func KSStatistic(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 1
	}
	a := SortedCopy(xs)
	b := SortedCopy(ys)
	return ksSorted(a, b)
}

// KSStatisticSorted is KSStatistic for already ascending-sorted samples; it
// skips the O(n log n) copies so callers that keep their samples sorted
// (similarity's order statistics) pay only the O(n+m) merge walk. That
// walk, shared with KSStatistic, is the reference the block-summary
// stream.Halves is differential-tested against.
func KSStatisticSorted(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	return ksSorted(a, b)
}

// ksSorted computes the KS statistic for pre-sorted samples.
func ksSorted(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	var i, j int
	var d, fa, fb float64
	// sort.Float64s puts NaNs first, all tied. Consume that tie group here:
	// NaN == NaN is false, so the loop below would never advance past one.
	for i < len(a) && a[i] != a[i] {
		i++
	}
	for j < len(b) && b[j] != b[j] {
		j++
	}
	if i+j > 0 {
		d = abs(float64(i)/na - float64(j)/nb)
	}
	for i < len(a) && j < len(b) {
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		fa = float64(i) / na
		fb = float64(j) / nb
		if diff := abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
