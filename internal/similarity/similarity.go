// Package similarity implements SHARP's distribution similarity metrics
// (§V-A3): the point-summary-oriented Normalized Absolute Mean Difference
// (NAMD) and the distribution-based Kolmogorov-Smirnov (KS) statistic, plus
// several extension metrics (Wasserstein-1, Jensen-Shannon divergence,
// overlap coefficient, Anderson-Darling) used in ablations.
//
// The central empirical finding the paper builds on (Takeaway 1) is that
// NAMD can report two distributions as identical when their means agree even
// though their shapes (spread, modes, tails) differ, while KS captures the
// full-distribution difference.
package similarity

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"sharp/internal/stats"
)

// ErrLengthMismatch is returned by NAMD when the two samples differ in size;
// the metric is defined over paired observations (§V-A3, "implicit
// assumption: the datasets have the same number of observations").
var ErrLengthMismatch = errors.New("similarity: NAMD requires equal-length samples")

// errEmptyNAMD is the shared empty-input error of the NAMD variants.
var errEmptyNAMD = errors.New("similarity: NAMD of empty samples")

// nan is shorthand for the error-path metric value.
func nan() float64 { return math.NaN() }

// errUnknownMetric is ComputeGroups' unknown-metric error.
func errUnknownMetric(m Metric) error {
	return fmt.Errorf("similarity: unknown metric %q", m)
}

// NAMD computes the Normalized Absolute Mean Difference exactly as defined
// in the paper:
//
//	NAMD = 1/2 * ( (1/X̄) * Σ|Xi−Yi| / n + (1/Ȳ) * Σ|Xi−Yi| / n )
//
// i.e. the mean absolute pairwise difference normalized by each sample's
// mean, averaged over the two normalizations. Observations are paired by
// index. It returns ErrLengthMismatch when len(x) != len(y) and an error
// for empty input or a zero mean.
func NAMD(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return math.NaN(), ErrLengthMismatch
	}
	if len(x) == 0 {
		return math.NaN(), errEmptyNAMD
	}
	mx := stats.Mean(x)
	my := stats.Mean(y)
	if mx == 0 || my == 0 {
		return math.NaN(), errors.New("similarity: NAMD undefined for zero-mean sample")
	}
	sum := 0.0
	for i := range x {
		sum += math.Abs(x[i] - y[i])
	}
	mad := sum / float64(len(x))
	return 0.5 * (mad/math.Abs(mx) + mad/math.Abs(my)), nil
}

// NAMDSorted computes NAMD after sorting both samples, pairing order
// statistics instead of arbitrary run indices. For two runs of the same
// experiment the run order carries no meaning, so SHARP's day-to-day
// comparisons use this variant: it measures mean-normalized quantile
// distance and reduces to 0 for identical distributions regardless of
// arrival order.
func NAMDSorted(x, y []float64) (float64, error) {
	return NAMD(stats.SortedCopy(x), stats.SortedCopy(y))
}

// NAMDTrimmedSorted computes NAMD on pre-sorted (ascending) samples of any
// lengths by quantile-matching the larger sample down to the smaller one.
// This is the practical adapter for comparing a partial run against a longer
// ground-truth run (Fig. 6's NAMD panel). It reuses the caller's sorted
// views without copying or re-sorting, so
// incremental consumers (the change-point detector's streaming segment
// accumulators) pay only the quantile-matching walk per evaluation.
func NAMDTrimmedSorted(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN(), errEmptyNAMD
	}
	if len(a) == len(b) {
		return NAMD(a, b)
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return NAMD(quantileResampleSorted(a, n), quantileResampleSorted(b, n))
}

// DivergenceSorted evaluates the named metric on two pre-sorted (ascending)
// samples without copying or re-sorting. It supports the two divergence
// measures the paper builds its day-to-day comparisons on — KS and NAMD
// (trimmed) — which are exactly the measures the distribution-aware
// change-point detector consumes; other metrics have no sorted fast path
// and return an error.
func DivergenceSorted(m Metric, a, b []float64) (float64, error) {
	switch m {
	case MetricNAMD:
		return NAMDTrimmedSorted(a, b)
	case MetricKS:
		return stats.KSStatisticSorted(a, b), nil
	default:
		return nan(), fmt.Errorf("similarity: no sorted divergence for metric %q", m)
	}
}

// quantileResample maps xs to n evenly spaced sample quantiles.
func quantileResample(xs []float64, n int) []float64 {
	return quantileResampleSorted(stats.SortedCopy(xs), n)
}

// quantileResampleSorted maps an ascending-sorted sample to n evenly spaced
// sample quantiles without re-sorting.
func quantileResampleSorted(s []float64, n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = stats.QuantileSorted(s, 0.5)
		return out
	}
	for i := 0; i < n; i++ {
		out[i] = stats.QuantileSorted(s, float64(i)/float64(n-1))
	}
	return out
}

// KS returns the two-sample Kolmogorov-Smirnov statistic
// sup_x |F1(x) − F2(x)|; 0 means identical empirical distributions, 1 means
// fully disjoint supports. Unlike NAMD it needs no equal lengths and
// captures differences in spread, modality, and tails.
func KS(x, y []float64) float64 {
	return stats.KSStatistic(x, y)
}

// wasserstein1Sorted computes the 1-Wasserstein distance of two non-empty
// ascending-sorted samples without re-sorting.
func wasserstein1Sorted(a, b []float64) float64 {
	if len(a) == len(b) {
		sum := 0.0
		for i := range a {
			sum += math.Abs(a[i] - b[i])
		}
		return sum / float64(len(a))
	}
	// General case: integrate |F1^{-1}(p) - F2^{-1}(p)| over a fine grid.
	const grid = 2048
	sum := 0.0
	for i := 0; i < grid; i++ {
		p := (float64(i) + 0.5) / grid
		sum += math.Abs(stats.QuantileSorted(a, p) - stats.QuantileSorted(b, p))
	}
	return sum / grid
}

// JensenShannon returns the Jensen-Shannon divergence (base 2, in [0,1])
// between histogram estimates of the two distributions over a common
// binning. bins <= 0 selects the paper's min(Sturges, FD) width on the
// pooled sample.
func JensenShannon(x, y []float64, bins int) float64 {
	if len(x) == 0 || len(y) == 0 {
		return math.NaN()
	}
	p, q := commonHistograms(x, y, bins)
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return (klBits(p, m) + klBits(q, m)) / 2
}

// OverlapCoefficient returns the shared probability mass of the two
// distributions estimated on a common binning: 1 means identical, 0 means
// disjoint. bins <= 0 selects automatic binning.
func OverlapCoefficient(x, y []float64, bins int) float64 {
	if len(x) == 0 || len(y) == 0 {
		return math.NaN()
	}
	p, q := commonHistograms(x, y, bins)
	sum := 0.0
	for i := range p {
		sum += math.Min(p[i], q[i])
	}
	return sum
}

// commonHistograms bins both samples over the pooled range and returns the
// two normalized mass vectors.
func commonHistograms(x, y []float64, bins int) (p, q []float64) {
	lo := math.Min(stats.Min(x), stats.Min(y))
	hi := math.Max(stats.Max(x), stats.Max(y))
	if bins <= 0 {
		w := stats.BinWidth(pool(x, y), stats.BinMinWidth)
		if w <= 0 {
			bins = 1
		} else {
			bins = int(math.Ceil((hi - lo) / w))
			if bins < 1 {
				bins = 1
			}
			if bins > 4096 {
				bins = 4096
			}
		}
	}
	width := (hi - lo) / float64(bins)
	count := func(xs []float64) []float64 {
		c := make([]float64, bins)
		for _, v := range xs {
			i := 0
			if width > 0 {
				i = int((v - lo) / width)
			}
			if i >= bins {
				i = bins - 1
			}
			if i < 0 {
				i = 0
			}
			c[i]++
		}
		n := float64(len(xs))
		for i := range c {
			c[i] /= n
		}
		return c
	}
	return count(x), count(y)
}

// pool merges x and y into one sample. Ascending inputs (the sorted views
// Group hands the metrics) give an ascending pool, which BinWidth then only
// copies; any other input still yields the union, which BinWidth sorts.
func pool(x, y []float64) []float64 {
	out := make([]float64, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if cmp.Less(y[j], x[i]) {
			out = append(out, y[j])
			j++
		} else {
			out = append(out, x[i])
			i++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// klBits computes the Kullback-Leibler divergence KL(p||m) in bits, with
// the convention 0*log(0/x) = 0. m must dominate p.
func klBits(p, m []float64) float64 {
	sum := 0.0
	for i := range p {
		if p[i] > 0 && m[i] > 0 {
			sum += p[i] * math.Log2(p[i]/m[i])
		}
	}
	return sum
}

// Metric names a similarity metric for configuration and reporting.
type Metric string

// Supported metric identifiers.
const (
	MetricNAMD        Metric = "namd"
	MetricKS          Metric = "ks"
	MetricWasserstein Metric = "wasserstein"
	MetricJSD         Metric = "jsd"
	MetricOverlap     Metric = "overlap"
	MetricAD          Metric = "anderson-darling"
)

// MatrixGroups computes the pairwise similarity matrix of sample groups
// under the given metric: out[i][j] = metric(gs[i], gs[j]). This is the
// day-to-day comparison structure behind the paper's Fig. 5b heatmaps,
// usable for any grouping (days, machines, code versions). Callers that
// evaluate several metrics on the same grouping (the Fig. 5b NAMD/KS
// heatmap pair) share one set of sorted views and resample caches.
//
// Each group is preprocessed (sorted, resampled) exactly once, and for the
// symmetric metrics (all but Anderson-Darling) only the upper triangle is
// computed, with out[j][i] mirrored from out[i][j]. The pairs fan out over
// at most workers goroutines (workers <= 1 means sequential), following the
// repo's --parallel convention; the result is independent of workers.
func MatrixGroups(m Metric, gs []*Group, workers int) ([][]float64, error) {
	n := len(gs)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = selfValue(m) // exact self-similarity without numerical noise
	}
	// Prepare each group once, in parallel: every pair below reuses the
	// sorted views instead of re-sorting per pair.
	if err := fanPairs(n, workers, func(i int) error {
		if gs[i].Len() > 0 {
			gs[i].Sorted()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sym := symmetric(m)
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
			if !sym {
				pairs = append(pairs, pair{j, i})
			}
		}
	}
	if err := fanPairs(len(pairs), workers, func(k int) error {
		p := pairs[k]
		v, err := ComputeGroups(m, gs[p.i], gs[p.j])
		if err != nil {
			return err
		}
		out[p.i][p.j] = v
		if sym {
			out[p.j][p.i] = v
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// selfValue is the metric value of a distribution against itself.
func selfValue(m Metric) float64 {
	if m == MetricOverlap {
		return 1
	}
	return 0
}
