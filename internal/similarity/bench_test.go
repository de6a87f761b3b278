package similarity

import (
	"math/rand/v2"
	"testing"
)

// benchGroups builds the Fig. 5b shape: five day-groups of 1000 runs.
func benchGroups(groups, runs int) [][]float64 {
	rng := rand.New(rand.NewPCG(41, 5))
	out := make([][]float64, groups)
	for i := range out {
		g := make([]float64, runs)
		for j := range g {
			mu := 100 + 2*float64(i)
			g[j] = mu + 3*rng.NormFloat64()
		}
		out[i] = g
	}
	return out
}

// BenchmarkMatrixNAMD measures the heatmap workload: the cached Group layer
// (sort each group once, upper triangle only) against the per-pair brute
// force of the uncached compute oracle.
func BenchmarkMatrixNAMD(b *testing.B) {
	groups := benchGroups(5, 1000)
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MatrixGroups(MetricNAMD, NewGroups(groups), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := len(groups)
			out := make([][]float64, n)
			for r := range out {
				out[r] = make([]float64, n)
				for c := range out[r] {
					if r == c {
						out[r][c] = selfValue(MetricNAMD)
						continue
					}
					v, err := compute(MetricNAMD, groups[r], groups[c])
					if err != nil {
						b.Fatal(err)
					}
					out[r][c] = v
				}
			}
		}
	})
}

// BenchmarkMatrixKS is the same comparison for the KS heatmap.
func BenchmarkMatrixKS(b *testing.B) {
	groups := benchGroups(5, 1000)
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MatrixGroups(MetricKS, NewGroups(groups), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := range groups {
				for c := range groups {
					if r != c {
						KS(groups[r], groups[c])
					}
				}
			}
		}
	})
}
