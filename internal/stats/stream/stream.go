// Package stream provides incremental (single-pass, updatable) versions of
// the statistics the stopping rules in internal/stopping evaluate at every
// CheckEvery boundary. The recompute path in internal/stats re-sorts and
// re-scans the full sample prefix on each check — O(n log n) per check,
// O(n^2 log n) per experiment. The accumulators here update on Add, or, for
// Halves, settle the samples added since the last query when queried:
//
//	structure    Add          query                 replaces
//	KahanSum     O(1)         Mean O(1)             stats.Mean (bit-identical)
//	Moments      O(1)         Var/CV/StdErr O(1)    stats.Variance (Welford, ±ulps)
//	OrderStats   O(log n)+mv  Quantile/Median O(1)  stats.Quantile (bit-identical)
//	                          ECDF Eval O(log n)    stats.ECDF (bit-identical)
//	                          MAD O(n)              stats.MAD (bit-identical)
//	Halves       O(1)         prefix-halves KS      stats.KSStatistic (bit-identical,
//	                          O(n/B + b log b + bB) b samples since the last
//	                          after b new samples   query sorted, the rest not)
//	                          B = 48
//
// Bit-identity notes. KahanSum replays exactly the compensated summation
// stats.Sum performs, in the same element order, so Mean is bit-identical to
// stats.Mean over the same prefix. OrderStats maintains the same sorted
// multiset SortedCopy would produce, so every order-statistic query matches
// the recompute path bit for bit. Variance is the one deliberate exception:
// Welford's online update is algebraically equal to the two-pass corrected
// estimator but rounds differently in the last ulps; stopping thresholds are
// compared at ~1e-2 scale, so the decision flip probability is negligible and
// the differential tests in internal/stopping verify the decisions agree.
package stream

import "math"

// KahanSum is a compensated running sum. Feeding it x_1..x_n in order yields
// exactly the same float64 as stats.Sum(xs[:n]) — same algorithm, same state,
// same rounding — which makes the running Mean bit-identical to stats.Mean.
type KahanSum struct {
	sum, c float64
	n      int
}

// Add feeds the next observation.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
	k.n++
}

// Mean returns Sum/N, NaN when empty — bit-identical to stats.Mean over the
// same sequence.
func (k *KahanSum) Mean() float64 {
	if k.n == 0 {
		return math.NaN()
	}
	return k.sum / float64(k.n)
}

// Moments tracks mean and variance incrementally. The mean comes from a
// KahanSum (bit-identical to the recompute path); the variance uses Welford's
// online algorithm (numerically stable, within ulps of the two-pass corrected
// estimator in internal/stats).
type Moments struct {
	kahan KahanSum
	// Welford state: running mean and sum of squared deviations.
	welMean float64
	m2      float64
}

// Add feeds the next observation.
func (m *Moments) Add(x float64) {
	m.kahan.Add(x)
	n := float64(m.kahan.n)
	d := x - m.welMean
	m.welMean += d / n
	m.m2 += d * (x - m.welMean)
}

// N returns the number of observations.
func (m *Moments) N() int { return m.kahan.n }

// Mean returns the running mean, bit-identical to stats.Mean.
func (m *Moments) Mean() float64 { return m.kahan.Mean() }

// Variance returns the unbiased sample variance (n-1 denominator), NaN for
// fewer than two observations — the same conventions as stats.Variance.
func (m *Moments) Variance() float64 {
	if m.kahan.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.kahan.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// StdErr returns the standard error of the mean, s/sqrt(n).
func (m *Moments) StdErr() float64 {
	if m.kahan.n == 0 {
		return math.NaN()
	}
	return m.StdDev() / math.Sqrt(float64(m.kahan.n))
}

// CV returns the coefficient of variation with stats.CV's conventions:
// 0 for constant data, +Inf for zero mean with spread.
func (m *Moments) CV() float64 {
	mean := m.Mean()
	s := m.StdDev()
	if s == 0 {
		return 0
	}
	if mean == 0 {
		return math.Inf(1)
	}
	return s / math.Abs(mean)
}
