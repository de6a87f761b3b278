package similarity

import (
	"math"
	"math/rand/v2"
	"testing"

	"sharp/internal/testsamples"
)

// randGroups builds a mix of group shapes and sizes, including unequal
// lengths (exercising the NAMD quantile-resample path) and ties.
func randGroups(rng *rand.Rand, n int) [][]float64 {
	groups := make([][]float64, n)
	for i := range groups {
		size := 40 + rng.IntN(300)
		g := make([]float64, size)
		switch i % 3 {
		case 0: // unimodal
			for j := range g {
				g[j] = 100 + 5*rng.NormFloat64()
			}
		case 1: // bimodal
			for j := range g {
				mu := 80.0
				if rng.Float64() < 0.4 {
					mu = 130
				}
				g[j] = mu + 3*rng.NormFloat64()
			}
		case 2: // lognormal with ties
			for j := range g {
				g[j] = math.Floor(math.Exp(4+0.4*rng.NormFloat64())*4) / 4
			}
		}
		groups[i] = g
	}
	return groups
}

// TestComputeGroupsMatchesCompute asserts the cached pair evaluation is
// bit-identical to the uncached compute oracle for every metric over random
// (including unequal-length) pairs.
func TestComputeGroupsMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	groups := randGroups(rng, 8)
	gs := NewGroups(groups)
	for _, m := range All() {
		for i := range groups {
			for j := range groups {
				if i == j {
					continue
				}
				want, errWant := compute(m, groups[i], groups[j])
				got, errGot := ComputeGroups(m, gs[i], gs[j])
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("%s[%d,%d]: error mismatch: %v vs %v", m, i, j, errWant, errGot)
				}
				if errWant != nil {
					continue
				}
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s[%d,%d]: ComputeGroups=%x compute=%x", m, i, j, got, want)
				}
			}
		}
	}
}

// TestMatrixSymmetry is the regression test for the upper-triangle
// optimization: every matrix cell must equal the brute-force compute of its
// own ordered pair, and for the symmetric metrics out[i][j] must equal
// out[j][i] bit-for-bit (so mirroring is exact, not approximate).
// Anderson-Darling is the deliberate exception — its A2 statistic weights by
// the first sample's ECDF — and the test pins that MatrixGroups really computes
// both of its triangles instead of mirroring.
func TestMatrixSymmetry(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 28))
	groups := randGroups(rng, 6)
	for _, m := range All() {
		out, err := MatrixGroups(m, NewGroups(groups), 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		sawAsym := false
		for i := range out {
			if out[i][i] != selfValue(m) {
				t.Errorf("%s: diagonal [%d] = %g, want %g", m, i, out[i][i], selfValue(m))
			}
			for j := range out {
				if i == j {
					continue
				}
				// Every ordered cell matches its own brute-force value —
				// for symmetric metrics this proves mirroring is exact, for
				// Anderson-Darling that both triangles are truly computed.
				want, err := compute(m, groups[i], groups[j])
				if err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				if out[i][j] != want {
					t.Errorf("%s: matrix[%d][%d]=%x brute=%x", m, i, j, out[i][j], want)
				}
				if symmetric(m) {
					if out[i][j] != out[j][i] {
						t.Errorf("%s: asymmetry at (%d,%d): %x vs %x", m, i, j, out[i][j], out[j][i])
					}
				} else if out[i][j] != out[j][i] {
					sawAsym = true
				}
			}
		}
		if !symmetric(m) && !sawAsym {
			t.Errorf("%s: declared asymmetric but no ordered pair differed; symmetric(m) may be stale", m)
		}
	}
}

// TestMatrixParallelMatchesSequential asserts worker count never changes the
// result.
func TestMatrixParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	groups := randGroups(rng, 7)
	for _, m := range All() {
		seq, err := MatrixGroups(m, NewGroups(groups), 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := MatrixGroups(m, NewGroups(groups), workers)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", m, workers, err)
			}
			for i := range seq {
				for j := range seq[i] {
					if seq[i][j] != par[i][j] {
						t.Fatalf("%s/workers=%d: [%d][%d] %x != %x", m, workers, i, j, par[i][j], seq[i][j])
					}
				}
			}
		}
	}
}

// TestMatrixEmptyGroupError pins the error propagation convention: the
// lowest-index failing pair's error surfaces regardless of worker count.
func TestMatrixEmptyGroupError(t *testing.T) {
	groups := [][]float64{{1, 2, 3}, {}, {4, 5}}
	for _, workers := range []int{1, 4} {
		if _, err := MatrixGroups(MetricNAMD, NewGroups(groups), workers); err == nil {
			t.Fatalf("workers=%d: expected error for empty group", workers)
		}
	}
}

// TestGroupResampledCached asserts the quantile resample is computed from
// the cached sorted view and memoized per length.
func TestGroupResampledCached(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	g := NewGroup(xs)
	a := g.Resampled(50)
	b := g.Resampled(50)
	if &a[0] != &b[0] {
		t.Fatalf("Resampled(50) not memoized")
	}
	want := quantileResample(xs, 50)
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("Resampled[%d]=%x quantileResample=%x", i, a[i], want[i])
		}
	}
}

// TestHistogramMetricsSortedMatchUnsorted: JSD and overlap on the sorted
// views (an ascending pool) equal the same metrics on the raw samples (an
// unordered pool that BinWidth sorts) bit for bit, on tie-heavy samples
// with zeros of both signs at either end.
func TestHistogramMetricsSortedMatchUnsorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 200; trial++ {
		x := testsamples.HalfSteps(rng, 1+rng.IntN(60), -rng.IntN(9))
		y := testsamples.HalfSteps(rng, 1+rng.IntN(60), -rng.IntN(9))
		gx, gy := NewGroup(x), NewGroup(y)
		for _, m := range []Metric{MetricJSD, MetricOverlap} {
			want, _ := compute(m, x, y)
			got, _ := ComputeGroups(m, gx, gy)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%v, %v): sorted %v, unsorted %v", m, x, y, got, want)
			}
		}
	}
}

// All lists every supported metric.
func All() []Metric {
	return []Metric{MetricNAMD, MetricKS, MetricWasserstein, MetricJSD, MetricOverlap, MetricAD}
}
