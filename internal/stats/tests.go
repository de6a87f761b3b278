package stats

import "math"

// TestResult is the outcome of a hypothesis test.
type TestResult struct {
	// Statistic is the test statistic (t, U, D, JB, ...).
	Statistic float64
	// PValue is the (two-sided unless noted) p-value.
	PValue float64
	// DF is the degrees of freedom where applicable (0 otherwise).
	DF float64
}

// Significant reports whether the test rejects at level alpha.
func (r TestResult) Significant(alpha float64) bool { return r.PValue < alpha }

// MannWhitneyU performs the two-sided Mann-Whitney U test (a.k.a. Wilcoxon
// rank-sum) with tie correction and normal approximation. The paper's
// related work (Eismann et al., §VII) uses it for regression testing of
// response-time variability.
//
// It sorts each side (a copy only, for an ascending input; see SortedCopy)
// and ranks both in one merge walk: every tie group across the two sides
// gets its midrank, and the group adds count-in-X × midrank to X's rank sum
// and t³−t to the tie term. Each partial rank sum is a multiple of ½ below
// 2⁵³, so it is exact in any order, and the tie terms are summed in
// ascending value order as before: the result is bit-identical to midrank
// ranking of the pooled sample. NaN has no rank: if either side holds one,
// the statistic and the p-value are NaN.
func MannWhitneyU(xs, ys []float64) TestResult {
	nx, ny := float64(len(xs)), float64(len(ys))
	if nx == 0 || ny == 0 {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	sx, sy := SortedCopy(xs), SortedCopy(ys)
	// Sorting puts NaNs first.
	if sx[0] != sx[0] || sy[0] != sy[0] {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	var rx, tieSum float64
	i, j, ranked := 0, 0, 0
	for i < len(sx) || j < len(sy) {
		var v float64
		if j == len(sy) || (i < len(sx) && sx[i] < sy[j]) {
			v = sx[i]
		} else {
			v = sy[j]
		}
		i0, j0 := i, j
		for i < len(sx) && sx[i] == v {
			i++
		}
		for j < len(sy) && sy[j] == v {
			j++
		}
		t := i - i0 + j - j0
		// The group holds ranks ranked+1 .. ranked+t.
		rx += float64(i-i0) * ((float64(ranked+1) + float64(ranked+t)) / 2)
		if t > 1 {
			tf := float64(t)
			tieSum += tf*tf*tf - tf
		}
		ranked += t
	}
	u := rx - nx*(nx+1)/2 // U statistic for sample X
	mu := nx * ny / 2
	// Tie correction for the variance.
	n := nx + ny
	sigma2 := nx * ny / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if sigma2 <= 0 {
		// All values tied: no evidence of difference.
		return TestResult{Statistic: u, PValue: 1}
	}
	// Continuity correction.
	z := (u - mu)
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(sigma2)
	p := math.Erfc(math.Abs(z) / math.Sqrt2)
	return TestResult{Statistic: u, PValue: clamp01(p)}
}

// KSTestSorted is KSTest for already ascending-sorted samples: it skips the
// O(n log n) copies, so cached-similarity callers (similarity.Group) pay
// only the O(n+m) merge walk. The result is identical to KSTest on the same
// multisets.
func KSTestSorted(a, b []float64) TestResult {
	d := KSStatisticSorted(a, b)
	na, nb := float64(len(a)), float64(len(b))
	if na == 0 || nb == 0 {
		return TestResult{Statistic: d, PValue: math.NaN()}
	}
	ne := na * nb / (na + nb)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return TestResult{Statistic: d, PValue: KolmogorovQ(lambda)}
}

// JarqueBera tests for normality via skewness and kurtosis. Under H0
// (normal data) the statistic is asymptotically chi-squared with 2 df. The
// classifier uses it to separate normal-like from skewed/heavy distributions.
func JarqueBera(xs []float64) TestResult {
	n := float64(len(xs))
	if n < 8 {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN(), DF: 2}
	}
	// Population (biased) moments, per the standard JB definition.
	m := Mean(xs)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	if m2 == 0 {
		return TestResult{Statistic: 0, PValue: 1, DF: 2}
	}
	s := m3 / math.Pow(m2, 1.5)
	k := m4 / (m2 * m2)
	jb := n / 6 * (s*s + (k-3)*(k-3)/4)
	p := 1 - ChiSquareCDF(jb, 2)
	return TestResult{Statistic: jb, PValue: clamp01(p), DF: 2}
}

// AndersonDarling2 computes the two-sample Anderson-Darling statistic
// (Pettitt's A2 form). Larger values indicate more dissimilar distributions;
// it weighs tails more heavily than KS and is provided as an extension
// similarity metric.
func AndersonDarling2(xs, ys []float64) float64 {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return math.Inf(1)
	}
	n := n1 + n2
	all := make([]float64, 0, n)
	all = append(all, xs...)
	all = append(all, ys...)
	z := SortedCopy(all)
	ex := NewECDF(xs)
	a2 := 0.0
	for j := 0; j < n-1; j++ {
		// M_j = number of xs <= z_j
		mj := ex.Eval(z[j]) * float64(n1)
		jj := float64(j + 1)
		num := (mj*float64(n) - jj*float64(n1))
		den := jj * (float64(n) - jj)
		a2 += num * num / den
	}
	return a2 / float64(n1*n2)
}

// CliffsDelta returns Cliff's delta effect size in [-1, 1]: the probability
// that a value from xs exceeds one from ys minus the reverse. |d| < 0.147
// is conventionally negligible, < 0.33 small, < 0.474 medium, else large.
// Regression gates report it alongside p-values so large samples cannot
// turn negligible shifts into alarms.
func CliffsDelta(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN()
	}
	// O((n+m) log(n+m)) via ranks: delta = 2*U/(n*m) - 1 where U counts
	// (x > y) pairs plus half-credit for ties.
	sortedY := SortedCopy(ys)
	var u float64
	for _, x := range xs {
		lo := searchLess(sortedY, x)
		hi := searchLessEq(sortedY, x)
		u += float64(lo) + float64(hi-lo)/2
	}
	n, m := float64(len(xs)), float64(len(ys))
	return 2*u/(n*m) - 1
}

// searchLess returns the count of elements < x in sorted.
func searchLess(sorted []float64, x float64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchLessEq returns the count of elements <= x in sorted.
func searchLessEq(sorted []float64, x float64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
