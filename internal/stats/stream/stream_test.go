package stream

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"sharp/internal/stats"
)

// streams returns a set of synthetic observation sequences covering the
// distribution families SHARP's stopping rules specialize in.
func streams(n int) map[string][]float64 {
	rng := rand.New(rand.NewPCG(7, 11))
	out := map[string][]float64{}

	normal := make([]float64, n)
	for i := range normal {
		normal[i] = 100 + 5*rng.NormFloat64()
	}
	out["normal"] = normal

	lognormal := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = math.Exp(4 + 0.4*rng.NormFloat64())
	}
	out["lognormal"] = lognormal

	bimodal := make([]float64, n)
	for i := range bimodal {
		mu := 50.0
		if rng.Float64() < 0.4 {
			mu = 120
		}
		bimodal[i] = mu + 3*rng.NormFloat64()
	}
	out["bimodal"] = bimodal

	heavy := make([]float64, n)
	for i := range heavy {
		// Pareto-like tail on a positive base.
		heavy[i] = 10 + 5/math.Pow(1-rng.Float64(), 0.7)
	}
	out["heavy"] = heavy

	withTies := make([]float64, n)
	for i := range withTies {
		withTies[i] = math.Floor(10 * rng.Float64()) // many exact ties
	}
	out["ties"] = withTies

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42
	}
	out["constant"] = constant

	return out
}

func TestKahanSumMatchesStatsMeanExactly(t *testing.T) {
	for name, xs := range streams(500) {
		var k KahanSum
		for i, x := range xs {
			k.Add(x)
			prefix := xs[:i+1]
			if got, want := k.Sum(), stats.Sum(prefix); got != want {
				t.Fatalf("%s: Sum at n=%d: got %v want %v", name, i+1, got, want)
			}
			if got, want := k.Mean(), stats.Mean(prefix); got != want {
				t.Fatalf("%s: Mean at n=%d: got %v want %v", name, i+1, got, want)
			}
		}
	}
}

func TestMomentsMatchesStats(t *testing.T) {
	for name, xs := range streams(500) {
		var m Moments
		for i, x := range xs {
			m.Add(x)
			prefix := xs[:i+1]
			if got, want := m.Mean(), stats.Mean(prefix); got != want {
				t.Fatalf("%s: Mean at n=%d: got %v want %v", name, i+1, got, want)
			}
			if i == 0 {
				if !math.IsNaN(m.Variance()) {
					t.Fatalf("%s: Variance at n=1 should be NaN", name)
				}
				continue
			}
			got, want := m.Variance(), stats.Variance(prefix)
			if want == 0 {
				if got != 0 {
					t.Fatalf("%s: Variance at n=%d: got %v want 0", name, i+1, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 1e-9 {
				t.Fatalf("%s: Variance at n=%d: got %v want %v (rel %v)", name, i+1, got, want, rel)
			}
		}
		// CV conventions match stats.CV.
		if got, want := m.CV(), stats.CV(xs); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: CV: got %v want %v", name, got, want)
		}
	}
}

func TestOrderStatsMatchesSortedRecompute(t *testing.T) {
	ps := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1}
	for name, xs := range streams(300) {
		var o OrderStats
		for i, x := range xs {
			o.Add(x)
			prefix := xs[:i+1]
			sorted := stats.SortedCopy(prefix)
			got := o.Sorted()
			if len(got) != len(sorted) {
				t.Fatalf("%s: length mismatch at n=%d", name, i+1)
			}
			for j := range sorted {
				if got[j] != sorted[j] {
					t.Fatalf("%s: sorted[%d] at n=%d: got %v want %v", name, j, i+1, got[j], sorted[j])
				}
			}
			if i%17 != 0 { // full query sweep on a subset of prefixes
				continue
			}
			for _, p := range ps {
				if got, want := o.Quantile(p), stats.Quantile(prefix, p); got != want {
					t.Fatalf("%s: Quantile(%v) at n=%d: got %v want %v", name, p, i+1, got, want)
				}
			}
			if got, want := o.Median(), stats.Median(prefix); got != want {
				t.Fatalf("%s: Median at n=%d: got %v want %v", name, i+1, got, want)
			}
			if got, want := o.IQR(), stats.IQR(prefix); got != want {
				t.Fatalf("%s: IQR at n=%d: got %v want %v", name, i+1, got, want)
			}
			if got, want := o.MAD(), stats.MAD(prefix); got != want {
				t.Fatalf("%s: MAD at n=%d: got %v want %v", name, i+1, got, want)
			}
			ecdf := stats.NewECDF(prefix)
			for _, q := range []float64{prefix[0], o.Median(), o.Max(), o.Min() - 1, o.Max() + 1} {
				if got, want := o.Eval(q), ecdf.Eval(q); got != want {
					t.Fatalf("%s: Eval(%v) at n=%d: got %v want %v", name, q, i+1, got, want)
				}
			}
		}
	}
}

func TestOrderStatsRemove(t *testing.T) {
	var o OrderStats
	for _, x := range []float64{3, 1, 2, 2, 5} {
		o.Add(x)
	}
	if !o.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if o.Remove(4) {
		t.Fatal("Remove(4) should report absent")
	}
	want := []float64{1, 2, 3, 5}
	got := o.Sorted()
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// halvesStreams returns arrival sequences that stress the block summaries
// behind Halves.KS: long enough for the summary path, tie groups that span
// many blocks, sorted arrival, infinities and NaNs.
func halvesStreams(n int) map[string][]float64 {
	out := streams(n)
	rng := rand.New(rand.NewPCG(3, 5))
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	out["heavy ties"] = gen(func(int) float64 { return float64(rng.IntN(40)) })
	out["three values"] = gen(func(int) float64 { return float64(rng.IntN(3)) })
	out["ascending"] = gen(func(i int) float64 { return float64(i) })
	out["descending"] = gen(func(i int) float64 { return float64(-i / 3) })
	out["drift"] = gen(func(i int) float64 { return float64(i)/100 + rng.NormFloat64() })
	out["infinities"] = gen(func(int) float64 {
		switch rng.IntN(10) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return rng.NormFloat64()
	})
	out["nan"] = gen(func(i int) float64 {
		if rng.IntN(8) == 0 || i > n/2 && rng.IntN(3) == 0 {
			return math.NaN()
		}
		return math.Floor(50 * rng.Float64())
	})
	return out
}

func TestHalvesMatchesSplitHalvesKS(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 800
	}
	for name, xs := range halvesStreams(n) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var h Halves
			for i, x := range xs {
				h.Add(x)
				prefix := xs[:i+1]
				if got, want := h.KS(), stats.KSStatistic(stats.SplitHalves(prefix)); got != want {
					t.Fatalf("KS at n=%d: got %v want %v", i+1, got, want)
				}
			}
			if h.N() != len(xs) {
				t.Fatalf("N = %d, want %d", h.N(), len(xs))
			}
		})
	}
}

func TestKDEWindowedEvalMatchesFullScan(t *testing.T) {
	for name, xs := range streams(300) {
		sorted := stats.SortedCopy(xs)
		bw := stats.SilvermanBandwidth(xs)
		k := stats.NewKDESorted(sorted, bw)
		probe := append([]float64{}, sorted...)
		probe = append(probe, sorted[0]-bw, sorted[len(sorted)-1]+bw, stats.Mean(xs))
		for _, x := range probe {
			if got, want := k.Eval(x), fullScanKDE(sorted, bw, x); got != want {
				t.Fatalf("%s: Eval(%v): got %v want %v", name, x, got, want)
			}
		}
	}
}

// fullScanKDE replicates the pre-windowing KDE evaluation (scan all points).
func fullScanKDE(sorted []float64, bw, x float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if bw <= 0 {
		bw = 1e-9
	}
	const norm = 0.3989422804014327
	sum := 0.0
	inv := 1 / bw
	for _, xi := range sorted {
		u := (x - xi) * inv
		if u > 8 || u < -8 {
			continue
		}
		sum += math.Exp(-0.5 * u * u)
	}
	return sum * norm * inv / float64(len(sorted))
}

func TestCountModesSortedBandwidthMatchesCountModes(t *testing.T) {
	for name, xs := range streams(400) {
		var o OrderStats
		for _, x := range xs {
			o.Add(x)
		}
		bw := stats.SilvermanFromStats(len(xs), stats.StdDev(xs), o.IQR())
		got := stats.CountModesSortedBandwidth(o.Sorted(), bw)
		want := stats.CountModes(xs)
		if got != want {
			t.Fatalf("%s: modes: got %d want %d", name, got, want)
		}
	}
}

func TestRelativeCIHalfWidthFromMomentsMatches(t *testing.T) {
	for name, xs := range streams(200) {
		got := stats.RelativeCIHalfWidthFromMoments(len(xs), stats.Mean(xs), stats.StdErr(xs), 0.95)
		want := stats.RelativeCIHalfWidth(xs, 0.95)
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("%s: got %v want %v", name, got, want)
		}
	}
	if !math.IsInf(stats.RelativeCIHalfWidthFromMoments(1, 5, 0, 0.95), 1) {
		t.Fatal("n<2 should give +Inf")
	}
}

func TestOrderStatsBatchOpsMatchSingleOps(t *testing.T) {
	// AddSortedBatch / RemoveSortedBatch must be equivalent to element-wise
	// Add / Remove: same multiset, bit for bit, across every stream family
	// (ties, constants, heavy tails included).
	rng := rand.New(rand.NewPCG(13, 17))
	for name, xs := range streams(300) {
		// Carve xs into random-size batches.
		var batches [][]float64
		for i := 0; i < len(xs); {
			k := 1 + rng.IntN(40)
			if i+k > len(xs) {
				k = len(xs) - i
			}
			batches = append(batches, xs[i:i+k])
			i += k
		}
		var batched, single OrderStats
		for _, b := range batches {
			batched.AddSortedBatch(stats.SortedCopy(b))
			for _, x := range b {
				single.Add(x)
			}
			if got, want := batched.Sorted(), single.Sorted(); !equalFloats(got, want) {
				t.Fatalf("%s: AddSortedBatch diverged at n=%d", name, single.N())
			}
		}
		// Remove the batches back out in a different order.
		for i := len(batches) - 1; i >= 0; i-- {
			b := batches[i]
			if !batched.RemoveSortedBatch(stats.SortedCopy(b)) {
				t.Fatalf("%s: RemoveSortedBatch reported missing values", name)
			}
			for _, x := range b {
				if !single.Remove(x) {
					t.Fatalf("%s: Remove reported missing value", name)
				}
			}
			if got, want := batched.Sorted(), single.Sorted(); !equalFloats(got, want) {
				t.Fatalf("%s: RemoveSortedBatch diverged at n=%d", name, single.N())
			}
		}
		if batched.N() != 0 {
			t.Fatalf("%s: %d values left after removing everything", name, batched.N())
		}
	}
}

func TestOrderStatsBatchOpsEdgeCases(t *testing.T) {
	var o OrderStats
	o.AddSortedBatch(nil) // no-op
	if o.N() != 0 {
		t.Fatal("empty batch changed the multiset")
	}
	o.AddSortedBatch([]float64{1, 2, 2, 5})
	if o.RemoveSortedBatch([]float64{2, 3}) {
		t.Error("absent value reported as removed")
	}
	if got := o.Sorted(); !equalFloats(got, []float64{1, 2, 5}) {
		t.Fatalf("after partial remove: %v", got)
	}
	if !o.RemoveSortedBatch(nil) {
		t.Error("empty batch remove must succeed")
	}
	// Duplicates beyond the multiset count: one occurrence per batch value.
	if o.RemoveSortedBatch([]float64{2, 2}) {
		t.Error("over-removal reported complete")
	}
	if got := o.Sorted(); !equalFloats(got, []float64{1, 5}) {
		t.Fatalf("after duplicate remove: %v", got)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOrderStatsOrdersNaNLikeSort: NaN sorts first, as sort.Float64s puts
// it, whatever the arrival order — and Remove finds it there.
func TestOrderStatsOrdersNaNLikeSort(t *testing.T) {
	nan := math.NaN()
	rng := rand.New(rand.NewPCG(19, 23))
	inputs := [][]float64{{3, nan, 1, 2, 5, 4}, {nan, nan, 1}, {2, 1, nan}}
	for len(inputs) < 50 {
		xs := make([]float64, 1+rng.IntN(60))
		for i := range xs {
			xs[i] = math.Floor(10 * rng.Float64())
			if rng.IntN(4) == 0 {
				xs[i] = nan
			}
		}
		inputs = append(inputs, xs)
	}
	for _, xs := range inputs {
		var o, batched OrderStats
		for _, x := range xs {
			o.Add(x)
		}
		batched.AddSortedBatch(stats.SortedCopy(xs))
		want := stats.SortedCopy(xs)
		if !equalFloats(o.Sorted(), want) || !equalFloats(batched.Sorted(), want) {
			t.Fatalf("%v: Add gives %v, AddSortedBatch %v, want %v", xs, o.Sorted(), batched.Sorted(), want)
		}
		if !batched.RemoveSortedBatch(stats.SortedCopy(xs)) || batched.N() != 0 {
			t.Fatalf("%v: RemoveSortedBatch left %v", xs, batched.Sorted())
		}
		for _, x := range xs {
			if !o.Remove(x) {
				t.Fatalf("%v: Remove(%v) reported absent from %v", xs, x, o.Sorted())
			}
		}
	}
}

// Sum returns the compensated sum.
func (k *KahanSum) Sum() float64 { return k.sum }

// Max returns the largest element, NaN when empty.
func (o *OrderStats) Max() float64 {
	if len(o.sorted) == 0 {
		return nan()
	}
	return o.sorted[len(o.sorted)-1]
}

// Eval is the incremental ECDF: F(x) = (#observations <= x)/n,
// right-continuous, bit-identical to stats.ECDF.Eval.
func (o *OrderStats) Eval(x float64) float64 {
	if len(o.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(o.sorted, x)
	for i < len(o.sorted) && o.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(o.sorted))
}

// Remove deletes one occurrence of x. It reports whether x was present.
func (o *OrderStats) Remove(x float64) bool {
	i := o.search(x)
	if i >= len(o.sorted) || !same(o.sorted[i], x) {
		return false
	}
	o.sorted = append(o.sorted[:i], o.sorted[i+1:]...)
	return true
}

// N returns the number of observations.
func (h *Halves) N() int { return h.n }
