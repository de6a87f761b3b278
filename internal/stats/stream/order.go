package stream

import (
	"math"
	"sort"

	"sharp/internal/stats"
)

// OrderStats is an incrementally maintained order-statistics multiset: a
// sorted slice updated by binary-search insert (O(log n) search plus a
// memmove). It maintains exactly the slice stats.SortedCopy would produce, so
// quantile, median, IQR, ECDF and MAD queries are bit-identical to the
// recompute path — without the O(n log n) sort per convergence check.
//
// For the sample sizes stopping rules see (MaxSamples defaults to 1000;
// sweeps run up to 4000) the memmove is at most a few tens of kilobytes and
// far cheaper than re-sorting; a Fenwick-indexed multiset would shave the
// memmove but lose the cheap contiguous Sorted() view every stats query
// needs. NaNs sort first and tie, as sort.Float64s orders them.
type OrderStats struct {
	sorted []float64
	dev    []float64 // scratch buffer for MAD
}

// Add inserts x, keeping the multiset sorted.
func (o *OrderStats) Add(x float64) {
	i := o.search(x)
	o.sorted = append(o.sorted, 0)
	copy(o.sorted[i+1:], o.sorted[i:])
	o.sorted[i] = x
}

// Remove deletes one occurrence of x. It reports whether x was present.
func (o *OrderStats) Remove(x float64) bool {
	i := o.search(x)
	if i >= len(o.sorted) || !same(o.sorted[i], x) {
		return false
	}
	o.sorted = append(o.sorted[:i], o.sorted[i+1:]...)
	return true
}

// search returns the first index whose element does not sort before x in
// sort.Float64s order, where NaNs come first: NaN lands at 0, and for any
// other x the NaN prefix fails SearchFloat64s's >= test like a smaller
// number.
func (o *OrderStats) search(x float64) int {
	if x != x {
		return 0
	}
	return sort.SearchFloat64s(o.sorted, x)
}

// AddSortedBatch merges an ascending-sorted batch into the multiset in one
// backward O(n+k) pass — equivalent to calling Add once per value, without
// the per-insert memmove. The change-point detector moves whole snapshots
// of samples across its segment boundary, so batch moves keep each boundary
// advance linear in the pooled sample count.
func (o *OrderStats) AddSortedBatch(batch []float64) {
	if len(batch) == 0 {
		return
	}
	n, k := len(o.sorted), len(batch)
	o.sorted = append(o.sorted, batch...)
	// Merge from the back so every element is written exactly once.
	w := n + k - 1
	i, j := n-1, k-1
	for j >= 0 {
		if i >= 0 && before(batch[j], o.sorted[i]) {
			o.sorted[w] = o.sorted[i]
			i--
		} else {
			o.sorted[w] = batch[j]
			j--
		}
		w--
	}
}

// RemoveSortedBatch deletes one occurrence of each value of an
// ascending-sorted batch in one forward O(n+k) pass — equivalent to calling
// Remove once per value. It reports whether every batch value was present;
// values not found are skipped.
func (o *OrderStats) RemoveSortedBatch(batch []float64) bool {
	if len(batch) == 0 {
		return true
	}
	all := true
	w, j := 0, 0
	for i := 0; i < len(o.sorted); i++ {
		if j < len(batch) && same(o.sorted[i], batch[j]) {
			j++ // drop this occurrence
			continue
		}
		// Batch values absent from the multiset must not stall the scan.
		for j < len(batch) && before(batch[j], o.sorted[i]) {
			j++
			all = false
		}
		if j < len(batch) && same(o.sorted[i], batch[j]) {
			j++
			continue
		}
		o.sorted[w] = o.sorted[i]
		w++
	}
	if j < len(batch) {
		all = false
	}
	o.sorted = o.sorted[:w]
	return all
}

// N returns the number of observations.
func (o *OrderStats) N() int { return len(o.sorted) }

// Sorted returns the ascending view of the multiset (shared; do not mutate,
// and do not retain across Add/Remove).
func (o *OrderStats) Sorted() []float64 { return o.sorted }

// Min returns the smallest element, NaN when empty.
func (o *OrderStats) Min() float64 {
	if len(o.sorted) == 0 {
		return nan()
	}
	return o.sorted[0]
}

// Max returns the largest element, NaN when empty.
func (o *OrderStats) Max() float64 {
	if len(o.sorted) == 0 {
		return nan()
	}
	return o.sorted[len(o.sorted)-1]
}

// Quantile returns the p-th sample quantile (Hyndman-Fan type 7),
// bit-identical to stats.Quantile over the same multiset.
func (o *OrderStats) Quantile(p float64) float64 {
	return stats.QuantileSorted(o.sorted, p)
}

// Median returns the sample median.
func (o *OrderStats) Median() float64 { return o.Quantile(0.5) }

// IQR returns Q3 - Q1, bit-identical to stats.IQR.
func (o *OrderStats) IQR() float64 {
	return o.Quantile(0.75) - o.Quantile(0.25)
}

// Eval is the incremental ECDF: F(x) = (#observations <= x)/n,
// right-continuous, bit-identical to stats.ECDF.Eval.
func (o *OrderStats) Eval(x float64) float64 {
	if len(o.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(o.sorted, x)
	for i < len(o.sorted) && o.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(o.sorted))
}

// MAD returns the median absolute deviation from the median, bit-identical to
// stats.MAD but in O(n) without sorting: because the data is already sorted,
// the absolute deviations |x - med| form two ascending runs (walking left and
// right from the median cut), which a two-pointer merge turns into a sorted
// deviation slice directly. IEEE-754 subtraction satisfies fl(med-x) =
// -fl(x-med), so med-x equals math.Abs(x-med) bit for bit.
func (o *OrderStats) MAD() float64 {
	n := len(o.sorted)
	if n == 0 {
		return nan()
	}
	med := o.Median()
	// Split point: first index with value >= med.
	k := sort.SearchFloat64s(o.sorted, med)
	if cap(o.dev) < n {
		o.dev = make([]float64, 0, cap(o.sorted))
	}
	dev := o.dev[:0]
	// Left run: med - sorted[k-1], med - sorted[k-2], ... ascending.
	// Right run: sorted[k] - med, sorted[k+1] - med, ... ascending.
	i, j := k-1, k
	for i >= 0 && j < n {
		l, r := med-o.sorted[i], o.sorted[j]-med
		if l <= r {
			dev = append(dev, l)
			i--
		} else {
			dev = append(dev, r)
			j++
		}
	}
	for ; i >= 0; i-- {
		dev = append(dev, med-o.sorted[i])
	}
	for ; j < n; j++ {
		dev = append(dev, o.sorted[j]-med)
	}
	o.dev = dev
	return stats.QuantileSorted(dev, 0.5)
}

func nan() float64 { return math.NaN() }
