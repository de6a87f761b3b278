package stats

import "math"

// Autocorrelation returns the sample autocorrelation of xs at the given lag
// (biased estimator, the standard ACF). Lag 0 returns 1 by definition; lags
// outside [0, n) return NaN.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		return math.NaN()
	}
	if lag == 0 {
		return 1
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	for _, x := range xs {
		den += (x - m) * (x - m)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// EffectiveSampleSize estimates the number of independent observations in an
// autocorrelated series, n / (1 + 2*sum(rho_k)) truncated at the first
// non-positive autocorrelation (Geyer's initial positive sequence, simplified).
// Stopping rules use it so that correlated samples do not masquerade as
// abundant evidence.
func EffectiveSampleSize(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return float64(n)
	}
	maxLag := n / 4
	if maxLag > 200 {
		maxLag = 200
	}
	// Batched ACF: hoist the mean and the (lag-independent) denominator out
	// of the per-lag loop instead of recomputing them inside Autocorrelation
	// for every lag. Each per-lag numerator is the same loop in the same
	// order, so the result is bit-identical to the per-lag recompute.
	m := Mean(xs)
	var den float64
	for _, x := range xs {
		den += (x - m) * (x - m)
	}
	sum := 0.0
	for k := 1; k <= maxLag; k++ {
		var num float64
		for i := 0; i < n-k; i++ {
			num += (xs[i] - m) * (xs[i+k] - m)
		}
		r := num / den
		if den == 0 {
			r = 0
		}
		if math.IsNaN(r) || r <= 0.05 {
			break
		}
		sum += r
	}
	ess := float64(n) / (1 + 2*sum)
	if ess < 1 {
		ess = 1
	}
	if ess > float64(n) {
		ess = float64(n)
	}
	return ess
}
