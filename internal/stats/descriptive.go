// Package stats is SHARP's statistical substrate: descriptive statistics,
// quantiles, histograms with the paper's binning rules, ECDFs, kernel
// density estimation and mode detection, confidence intervals, hypothesis
// tests, bootstrap resampling, and autocorrelation analysis.
//
// It corresponds to the "library of statistical utilities" that the paper's
// Reporter module delegates to (§IV-e), re-implemented on the Go standard
// library only.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty data")

// Sum returns the sum of xs using Kahan compensated summation, so long
// experiment logs (10^5+ rows) do not accumulate float error.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
// It returns NaN for fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		ss += d * d
		comp += d
	}
	// Correct for rounding in the mean (two-pass corrected algorithm).
	ss -= comp * comp / float64(n)
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean, s/sqrt(n).
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// CV returns the coefficient of variation s/|mean|. It returns +Inf when the
// mean is zero and the data is not constant.
func CV(xs []float64) float64 {
	m := Mean(xs)
	s := StdDev(xs)
	if s == 0 {
		return 0
	}
	if m == 0 {
		return math.Inf(1)
	}
	return s / math.Abs(m)
}

// Min returns the smallest element of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Skewness returns the adjusted Fisher-Pearson sample skewness (the g1
// estimator with the small-sample correction factor). Symmetric data has
// skewness near zero; log-normal-like performance data is right-skewed.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Kurtosis returns the excess kurtosis (g2 = m4/m2^2 - 3). Gaussian data has
// excess kurtosis near zero; heavy-tailed data has large positive values.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// MAD returns the median absolute deviation from the median, a robust
// dispersion measure used by the classifier for heavy-tail detection.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// SortedCopy returns a fresh copy of xs sorted ascending (NaNs first, as
// sort.Float64s orders them) without mutating the input. An input that is
// already ascending is copied as is: the check stops at the first
// inversion, so unsorted callers pay almost nothing for it, and a sorted
// view can flow through every function that calls SortedCopy (Describe,
// QuantileCI, NewKDE, BinWidth, IQR, CountModes, the textplot renderers)
// at the cost of a copy. Skipping the sort also keeps tied -0 and +0 in
// the order the one real sort left them.
//
// An unsorted input of at least radixCutoff values is radix-sorted
// (radix.go), and the result is the one sort.Float64s gives, bit for bit.
// sort.Float64s is not stable, so only a sort whose order is unique
// could promise that: every ascending arrangement of the input must be the
// same sequence of bits. On an input with no NaN that holds unless it has
// zeros of both signs: two non-NaN values compare equal only if they have
// identical bits or are -0 and +0, so elements that tie are
// interchangeable. The radix order ranks every non-NaN value as < does
// (and -0 below +0, which such an input never meets), so it yields that
// unique arrangement. An input with a NaN, whose place among equal NaNs
// sort.Float64s leaves to its pivots, or with both -0 and +0 keeps
// sort.Float64s, as do shorter inputs.
func SortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	if slices.IsSorted(s) {
		return s
	}
	if len(s) < radixCutoff || !radixSort(s) {
		sort.Float64s(s)
	}
	return s
}

// Summary is the full descriptive-statistics record SHARP logs for every
// sample set. It deliberately includes distribution-shape fields (skewness,
// kurtosis, modality inputs) beyond the point summaries the paper criticizes.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	StdErr   float64
	CV       float64
	Min      float64
	P25      float64
	Median   float64
	P75      float64
	P95      float64
	P99      float64
	Max      float64
	IQR      float64
	Skewness float64
	Kurtosis float64
}

// Describe computes a Summary of xs. It returns ErrEmpty for empty input.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := SortedCopy(xs)
	sum := Summary{
		N:        len(s),
		Mean:     Mean(s),
		StdDev:   StdDev(s),
		StdErr:   StdErr(s),
		CV:       CV(s),
		Min:      s[0],
		P25:      QuantileSorted(s, 0.25),
		Median:   QuantileSorted(s, 0.5),
		P75:      QuantileSorted(s, 0.75),
		P95:      QuantileSorted(s, 0.95),
		P99:      QuantileSorted(s, 0.99),
		Max:      s[len(s)-1],
		Skewness: Skewness(s),
		Kurtosis: Kurtosis(s),
	}
	sum.IQR = sum.P75 - sum.P25
	return sum, nil
}
