package stats

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// Micro-benchmarks of the statistics substrate on stopping-rule-sized
// samples: these operations run on every convergence check, so their cost
// bounds the launcher's orchestration overhead.

func benchData(n int) []float64 {
	r := rand.New(rand.NewPCG(1, 2))
	out := make([]float64, n)
	for i := range out {
		out[i] = 10 + r.NormFloat64()
	}
	return out
}

func BenchmarkKSStatistic1k(b *testing.B) {
	x, y := benchData(1000), benchData(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KSStatistic(x, y)
	}
}

func BenchmarkCountModes1k(b *testing.B) {
	x := benchData(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountModes(x)
	}
}

// benchBimodal draws a bimodal sample — the shape the Fig. 4 census and the
// modality stopping rule spend most of their time on.
func benchBimodal(n int) []float64 {
	r := rand.New(rand.NewPCG(7, 9))
	out := make([]float64, n)
	for i := range out {
		mu := 10.0
		if r.Float64() < 0.4 {
			mu = 14
		}
		out[i] = mu + 0.3*r.NormFloat64()
	}
	return out
}

// BenchmarkCountModes10k pits the linear-binned fast path against the exact
// KDE grid on census-sized samples (Fig. 4 draws 5000-run distributions).
func BenchmarkCountModes10k(b *testing.B) {
	x := benchBimodal(10000)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountModes(x)
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountModesExact(x)
		}
	})
}

func BenchmarkQuantile1k(b *testing.B) {
	x := benchData(1000)
	for i := 0; i < b.N; i++ {
		Quantile(x, 0.95)
	}
}

func BenchmarkDescribe1k(b *testing.B) {
	x := benchData(1000)
	for i := 0; i < b.N; i++ {
		if _, err := Describe(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeanCI1k(b *testing.B) {
	x := benchData(1000)
	for i := 0; i < b.N; i++ {
		MeanCI(x, 0.95)
	}
}

func BenchmarkEffectiveSampleSize1k(b *testing.B) {
	x := benchData(1000)
	for i := 0; i < b.N; i++ {
		EffectiveSampleSize(x)
	}
}

func BenchmarkJarqueBera1k(b *testing.B) {
	x := benchData(1000)
	for i := 0; i < b.N; i++ {
		JarqueBera(x)
	}
}

// BenchmarkBootstrapCI covers a small sample and the report's scale: a
// 31 252-sample campaign log with the report's 500 resamples. The mean
// leg times BootstrapMeanCI, the fused kernel the report runs, on the
// same input.
func BenchmarkBootstrapCI(b *testing.B) {
	for _, c := range []struct{ n, resamples int }{{300, 200}, {31252, 500}} {
		b.Run(fmt.Sprintf("n=%d/R=%d", c.n, c.resamples), func(b *testing.B) {
			x := benchData(c.n)
			rng := rand.New(rand.NewPCG(3, 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BootstrapCI(rng, x, c.resamples, 0.95, Mean)
			}
		})
	}
	b.Run("mean/n=31252/R=500", func(b *testing.B) {
		x := benchData(31252)
		rng := rand.New(rand.NewPCG(3, 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BootstrapMeanCI(rng, x, 500, 0.95)
		}
	})
}

// rankSortSlice is the previous Rank implementation (closure-capturing
// sort.Slice over an index permutation), kept as the benchmark baseline for
// the slices.SortFunc pair-sorting rewrite.
func rankSortSlice(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

func BenchmarkRank(b *testing.B) {
	x := benchData(1000)
	b.Run("pairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Rank(x)
		}
	})
	b.Run("sortslice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rankSortSlice(x)
		}
	})
}
