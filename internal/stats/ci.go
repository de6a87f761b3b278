package stats

import "math"

// Interval is a confidence interval for a statistic.
type Interval struct {
	Low, High float64
	// Level is the confidence level, e.g. 0.95.
	Level float64
}

// normalQuantile is the standard normal quantile; kept here (duplicated from
// randx) so stats has no dependency on the sampling package.
func normalQuantile(p float64) float64 {
	// Use the Student t with huge df, which reduces to the normal; but we
	// have BetaInc available, so invert the normal CDF by bisection seeded
	// with a rough rational start for speed.
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// studentTQuantile returns the p-th quantile of Student's t with df degrees
// of freedom, by bisection on StudentTCDF.
func studentTQuantile(p, df float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MeanCI returns the two-sided Student-t confidence interval for the mean of
// xs at the given level (e.g. 0.95).
func MeanCI(xs []float64, level float64) Interval {
	n := len(xs)
	if n < 2 {
		m := Mean(xs)
		return Interval{Low: m, High: m, Level: level}
	}
	m := Mean(xs)
	se := StdErr(xs)
	alpha := 1 - level
	t := studentTQuantile(1-alpha/2, float64(n-1))
	return Interval{Low: m - t*se, High: m + t*se, Level: level}
}

// MeanCIRightTailed returns the one-sided (right-tailed) confidence bound
// used by the paper's CI stopping rule (§V-C): the upper confidence limit of
// the mean at the given level. The rule compares (High - mean) / mean to a
// threshold.
func MeanCIRightTailed(xs []float64, level float64) Interval {
	n := len(xs)
	m := Mean(xs)
	if n < 2 {
		return Interval{Low: math.Inf(-1), High: m, Level: level}
	}
	se := StdErr(xs)
	t := studentTQuantile(level, float64(n-1))
	return Interval{Low: math.Inf(-1), High: m + t*se, Level: level}
}

// RelativeCIHalfWidth returns the paper's CI-rule statistic: the distance
// from the sample mean to the right-tailed confidence bound, as a proportion
// of the mean. It returns +Inf when fewer than two samples exist or the mean
// is zero.
func RelativeCIHalfWidth(xs []float64, level float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	m := Mean(xs)
	if m == 0 {
		return math.Inf(1)
	}
	ci := MeanCIRightTailed(xs, level)
	return math.Abs(ci.High-m) / math.Abs(m)
}

// MeanCIRightTailedFromMoments is MeanCIRightTailed computed from
// pre-aggregated moments (sample count, mean, standard error of the mean)
// instead of the raw sample, for incremental callers that maintain the
// moments in O(1) per observation. Fed the same mean and stderr, it performs
// the same operations in the same order as MeanCIRightTailed.
func MeanCIRightTailedFromMoments(n int, mean, stderr, level float64) Interval {
	if n < 2 {
		return Interval{Low: math.Inf(-1), High: mean, Level: level}
	}
	t := studentTQuantile(level, float64(n-1))
	return Interval{Low: math.Inf(-1), High: mean + t*stderr, Level: level}
}

// RelativeCIHalfWidthFromMoments is RelativeCIHalfWidth from pre-aggregated
// moments; see MeanCIRightTailedFromMoments.
func RelativeCIHalfWidthFromMoments(n int, mean, stderr, level float64) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	if mean == 0 {
		return math.Inf(1)
	}
	ci := MeanCIRightTailedFromMoments(n, mean, stderr, level)
	return math.Abs(ci.High-mean) / math.Abs(mean)
}

// QuantileCI returns a distribution-free (order-statistic, normal
// approximation) confidence interval for the p-th quantile.
func QuantileCI(xs []float64, p, level float64) Interval {
	s := SortedCopy(xs)
	n := len(s)
	if n == 0 {
		return Interval{Low: math.NaN(), High: math.NaN(), Level: level}
	}
	if n < 3 {
		return Interval{Low: s[0], High: s[n-1], Level: level}
	}
	z := normalQuantile(1 - (1-level)/2)
	nf := float64(n)
	half := z * math.Sqrt(nf*p*(1-p))
	loIdx := int(math.Floor(nf*p - half))
	hiIdx := int(math.Ceil(nf*p + half))
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	return Interval{Low: s[loIdx], High: s[hiIdx], Level: level}
}
