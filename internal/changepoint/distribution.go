package changepoint

import (
	"fmt"

	"sharp/internal/similarity"
	"sharp/internal/stats"
	"sharp/internal/stats/stream"
)

// DistOptions tunes the distribution-aware detector.
type DistOptions struct {
	Options
	// Divergence is the segment divergence measure: similarity.MetricKS
	// (default) or similarity.MetricNAMD. KS sees shape changes a mean-based
	// statistic is blind to (the paper's Takeaway 1); NAMD reproduces a
	// mean-normalized quantile-distance gate.
	Divergence similarity.Metric
}

func (o DistOptions) withDefaults() DistOptions {
	o.Options = o.Options.withDefaults()
	if o.Divergence == "" {
		o.Divergence = similarity.MetricKS
	}
	return o
}

// DetectDistributions runs the distribution-aware E-Divisive detector over a
// series of per-snapshot sample sets: the divergence at a candidate split is
// the chosen similarity metric between the pooled samples left of the split
// and the pooled samples right of it, scaled by (mn/(m+n)) in snapshot
// counts. The boundary sweep streams through incremental order-statistics
// accumulators (internal/stats/stream), so one segment scan costs
// O(segment · pooled samples) instead of re-sorting every candidate pooling.
//
// It returns an error for an unsupported divergence metric or an empty
// snapshot; series shorter than 2*MinSegment return no change points.
func DetectDistributions(groups [][]float64, o DistOptions) ([]ChangePoint, error) {
	o = o.withDefaults()
	if _, err := similarity.DivergenceSorted(o.Divergence, []float64{1}, []float64{1}); err != nil {
		return nil, err
	}
	for i, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("changepoint: snapshot %d has no samples", i)
		}
	}
	sc := newDistScanner(groups, o.Divergence)
	return run(len(groups), sc, o.Options), nil
}

// distScanner sweeps the split boundary over pooled sample distributions.
// It keeps the left and right poolings as two incremental sorted multisets
// (stream.OrderStats) and moves one snapshot's pre-sorted sample batch
// across the boundary per advance, so a split costs O(pooled samples)
// instead of a re-sort of both sides.
type distScanner struct {
	sorted [][]float64 // per-snapshot ascending-sorted samples
	metric similarity.Metric
}

func newDistScanner(groups [][]float64, metric similarity.Metric) *distScanner {
	sorted := make([][]float64, len(groups))
	for i, g := range groups {
		sorted[i] = stats.SortedCopy(g)
	}
	return &distScanner{sorted: sorted, metric: metric}
}

func (s *distScanner) bestSplit(order []int, lo, hi, minSeg int) (int, float64) {
	n := hi - lo
	if n < 2*minSeg {
		return -1, 0
	}
	var left, right stream.OrderStats
	for i := 0; i < n; i++ {
		batch := s.sorted[order[lo+i]]
		if i < minSeg {
			left.AddSortedBatch(batch)
		} else {
			right.AddSortedBatch(batch)
		}
	}
	bestTau, bestQ := -1, 0.0
	for m := minSeg; m <= n-minSeg; m++ {
		d, err := similarity.DivergenceSorted(s.metric, left.Sorted(), right.Sorted())
		if err == nil {
			q := distWeight(m, n-m) * d
			if bestTau < 0 || q > bestQ {
				bestTau, bestQ = lo+m, q
			}
		}
		if m == n-minSeg {
			break
		}
		batch := s.sorted[order[lo+m]]
		right.RemoveSortedBatch(batch)
		left.AddSortedBatch(batch)
	}
	return bestTau, bestQ
}

// distWeight is the E-Divisive segment-size scaling in snapshot counts.
func distWeight(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm * fn / (fm + fn)
}
