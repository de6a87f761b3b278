package changepoint

import (
	"math"
	"reflect"
	"testing"

	"sharp/internal/randx"
	"sharp/internal/similarity"
	"sharp/internal/stats"
)

// trajectory synthesizes a series of per-snapshot sample distributions.
// shape selects what changes at snapshot at: "step" (mean), "drift" (mean
// step that keeps growing), "variance" (scale), "none".
func trajectory(seed uint64, shape string, snapshots, samples, at int) [][]float64 {
	rng := randx.New(seed)
	groups := make([][]float64, snapshots)
	for i := range groups {
		mu, sigma := 10.0, 0.5
		if i >= at {
			switch shape {
			case "step":
				mu = 13
			case "drift":
				mu = 12 + 0.3*float64(i-at)
			case "variance":
				sigma = 2.5
			}
		}
		g := make([]float64, samples)
		for j := range g {
			g[j] = mu + sigma*rng.NormFloat64()
		}
		groups[i] = g
	}
	return groups
}

// batchScanner is the recompute-from-scratch reference for distScanner:
// it re-pools and re-sorts both sides of every candidate split, with no
// incremental state, and exists to differentially verify the streaming
// sweep.
type batchScanner struct{ *distScanner }

func (s batchScanner) bestSplit(order []int, lo, hi, minSeg int) (int, float64) {
	n := hi - lo
	if n < 2*minSeg {
		return -1, 0
	}
	pool := func(from, to int) []float64 {
		var all []float64
		for i := from; i < to; i++ {
			all = append(all, s.sorted[order[lo+i]]...)
		}
		return stats.SortedCopy(all)
	}
	bestTau, bestQ := -1, 0.0
	for m := minSeg; m <= n-minSeg; m++ {
		d, err := similarity.DivergenceSorted(s.metric, pool(0, m), pool(m, n))
		if err != nil {
			continue
		}
		q := distWeight(m, n-m) * d
		if bestTau < 0 || q > bestQ {
			bestTau, bestQ = lo+m, q
		}
	}
	return bestTau, bestQ
}

func TestDistributionStreamingMatchesBatchReference(t *testing.T) {
	// The streaming detector (incremental sorted multisets) and the batch
	// recompute-from-scratch reference must find identical change points —
	// indices, Q statistics, and permutation p-values, byte for byte —
	// across every trajectory shape and both divergence metrics.
	for _, metric := range []similarity.Metric{similarity.MetricKS, similarity.MetricNAMD} {
		for _, shape := range []string{"step", "drift", "variance", "none"} {
			for trial := 0; trial < 3; trial++ {
				seed := uint64(100*trial + 7)
				groups := trajectory(seed, shape, 20, 30, 10)
				opts := DistOptions{Divergence: metric}
				streaming, err := DetectDistributions(groups, opts)
				if err != nil {
					t.Fatal(err)
				}
				o := opts.withDefaults()
				batch := run(len(groups), batchScanner{newDistScanner(groups, o.Divergence)}, o.Options)
				if !reflect.DeepEqual(streaming, batch) {
					t.Fatalf("%s/%s trial %d: streaming %+v != batch %+v",
						metric, shape, trial, streaming, batch)
				}
				for i := range streaming {
					if math.Float64bits(streaming[i].Q) != math.Float64bits(batch[i].Q) ||
						math.Float64bits(streaming[i].P) != math.Float64bits(batch[i].P) {
						t.Fatalf("%s/%s trial %d: Q/P not byte-identical", metric, shape, trial)
					}
				}
			}
		}
	}
}

func TestDistributionLocalizesChanges(t *testing.T) {
	for _, tc := range []struct{ shape string }{{"step"}, {"drift"}, {"variance"}} {
		t.Run(tc.shape, func(t *testing.T) {
			hits, trials := 0, 20
			for trial := 0; trial < trials; trial++ {
				groups := trajectory(uint64(3000+trial), tc.shape, 20, 30, 10)
				cps, err := DetectDistributions(groups, DistOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for _, cp := range cps {
					if cp.Index >= 9 && cp.Index <= 11 {
						hits++
						break
					}
				}
			}
			if frac := float64(hits) / float64(trials); frac < 0.95 {
				t.Fatalf("localized %d/%d (%.0f%%), want >= 95%%", hits, trials, frac*100)
			}
		})
	}
}

func TestDistributionNAMDLocalizesMeanStep(t *testing.T) {
	// The NAMD divergence variant must localize a mean step just like KS.
	hits, trials := 0, 20
	for trial := 0; trial < trials; trial++ {
		groups := trajectory(uint64(5000+trial), "step", 20, 30, 10)
		cps, err := DetectDistributions(groups, DistOptions{Divergence: similarity.MetricNAMD})
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range cps {
			if cp.Index >= 9 && cp.Index <= 11 {
				hits++
				break
			}
		}
	}
	if frac := float64(hits) / float64(trials); frac < 0.95 {
		t.Fatalf("localized %d/%d (%.0f%%), want >= 95%%", hits, trials, frac*100)
	}
}

func TestDistributionNoChangeStaysQuiet(t *testing.T) {
	false_ := 0
	for trial := 0; trial < 20; trial++ {
		groups := trajectory(uint64(4000+trial), "none", 20, 30, 0)
		cps, err := DetectDistributions(groups, DistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) > 0 {
			false_++
		}
	}
	if false_ > 4 {
		t.Fatalf("%d/20 stationary trajectories flagged", false_)
	}
}

func TestDistributionPValueDeterministicUnderSeed(t *testing.T) {
	groups := trajectory(77, "step", 16, 25, 8)
	a, err := DetectDistributions(groups, DistOptions{Options: Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetectDistributions(groups, DistOptions{Options: Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected a change point")
	}
}

func TestDistributionErrors(t *testing.T) {
	groups := trajectory(1, "none", 8, 10, 0)
	if _, err := DetectDistributions(groups, DistOptions{Divergence: similarity.MetricJSD}); err == nil {
		t.Error("unsupported divergence accepted")
	}
	groups[3] = nil
	if _, err := DetectDistributions(groups, DistOptions{}); err == nil {
		t.Error("empty snapshot accepted")
	}
}
