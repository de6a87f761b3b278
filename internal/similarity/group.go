// Cached similarity layer: recomputing sorts, histograms and quantile
// resamples for every ordered pair of groups costs O(n² · n log n) for the
// NAMD heatmaps. Group memoizes the per-group preprocessing (sorted
// view, quantile resamples) so each group is prepared once, every unordered
// pair is computed once for the symmetric metrics (upper triangle, mirrored),
// and pairs fan out over a bounded worker pool following the repo's
// --parallel convention. All pair values are bit-identical to evaluating
// each metric on the raw samples: every shipped metric is a function of the
// two multisets only.
package similarity

import (
	"sync"

	"sharp/internal/stats"
)

// Group wraps one sample set for repeated pairwise comparison, caching the
// sorted view and the quantile resamples that the metrics need. The raw
// slice is retained, not copied; do not mutate it while the Group is in
// use. All methods are safe for concurrent use.
type Group struct {
	data []float64

	sortOnce sync.Once
	sorted   []float64

	mu        sync.Mutex
	resampled map[int][]float64
}

// NewGroup wraps xs (retained, not copied).
func NewGroup(xs []float64) *Group { return &Group{data: xs} }

// NewGroups wraps each sample set of a group list.
func NewGroups(groups [][]float64) []*Group {
	gs := make([]*Group, len(groups))
	for i, g := range groups {
		gs[i] = NewGroup(g)
	}
	return gs
}

// Len returns the sample count.
func (g *Group) Len() int { return len(g.data) }

// Sorted returns the ascending-sorted view, built once on first use.
// Shared; do not mutate.
func (g *Group) Sorted() []float64 {
	g.sortOnce.Do(func() { g.sorted = stats.SortedCopy(g.data) })
	return g.sorted
}

// Resampled returns the n evenly spaced sample quantiles of the group
// (the NAMD length adapter for unequal samples), cached per n. Shared; do not mutate.
func (g *Group) Resampled(n int) []float64 {
	s := g.Sorted()
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.resampled[n]; ok {
		return r
	}
	r := quantileResampleSorted(s, n)
	if g.resampled == nil {
		g.resampled = make(map[int][]float64)
	}
	g.resampled[n] = r
	return r
}

// ComputeGroups evaluates the named metric on two prepared groups. NAMD
// uses the trimmed (quantile-matched) variant so unequal lengths are
// accepted. The value is exactly that of the metric on the raw samples —
// every supported metric depends only on the two multisets — while the
// groups' cached sorted views and resamples are reused instead of
// re-sorting per pair.
func ComputeGroups(m Metric, a, b *Group) (float64, error) {
	switch m {
	case MetricNAMD:
		if a.Len() == 0 || b.Len() == 0 {
			return nan(), errEmptyNAMD
		}
		if a.Len() == b.Len() {
			return NAMD(a.Sorted(), b.Sorted())
		}
		n := a.Len()
		if b.Len() < n {
			n = b.Len()
		}
		return NAMD(a.Resampled(n), b.Resampled(n))
	case MetricKS:
		return stats.KSStatisticSorted(a.Sorted(), b.Sorted()), nil
	case MetricWasserstein:
		if a.Len() == 0 || b.Len() == 0 {
			return nan(), nil
		}
		return wasserstein1Sorted(a.Sorted(), b.Sorted()), nil
	case MetricJSD:
		return JensenShannon(a.Sorted(), b.Sorted(), 0), nil
	case MetricOverlap:
		return OverlapCoefficient(a.Sorted(), b.Sorted(), 0), nil
	case MetricAD:
		return stats.AndersonDarling2(a.Sorted(), b.Sorted()), nil
	default:
		return nan(), errUnknownMetric(m)
	}
}

// symmetric reports whether metric(x, y) == metric(y, x) exactly, which is
// what licenses computing only the upper triangle of a matrix and mirroring.
// NAMD averages the two normalizations and float addition is commutative;
// KS, Wasserstein, JSD and overlap are order-symmetric multiset distances.
// Anderson-Darling is NOT symmetric — the A2 statistic weights by the first
// sample's ECDF — so MatrixGroups computes both of its triangles.
func symmetric(m Metric) bool {
	switch m {
	case MetricNAMD, MetricKS, MetricWasserstein, MetricJSD, MetricOverlap:
		return true
	default:
		return false
	}
}

// fanPairs runs fn(0..n-1) on a bounded worker pool and returns the error
// of the lowest-index failing task, mirroring the experiments runner's
// determinism convention.
func fanPairs(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
