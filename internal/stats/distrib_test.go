package stats

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func normData(seed uint64, n int, mu, sigma float64) []float64 {
	r := rand.New(rand.NewPCG(seed, seed^0x9e37))
	out := make([]float64, n)
	for i := range out {
		out[i] = mu + sigma*r.NormFloat64()
	}
	return out
}

func bimodalData(seed uint64, n int, mu1, mu2, sigma float64) []float64 {
	r := rand.New(rand.NewPCG(seed, seed^0xabcd))
	out := make([]float64, n)
	for i := range out {
		mu := mu1
		if r.Float64() < 0.5 {
			mu = mu2
		}
		out[i] = mu + sigma*r.NormFloat64()
	}
	return out
}

func TestHistogramCountsSumToN(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		for _, rule := range []BinRule{BinSturges, BinFreedmanDiaconis, BinMinWidth, BinScott} {
			h := NewHistogram(xs, rule)
			total := 0
			for _, c := range h.Counts {
				total += c
			}
			if total != len(xs) {
				return false
			}
			if len(h.Edges) != len(h.Counts)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinWidthMinRule(t *testing.T) {
	xs := normData(1, 1000, 10, 2)
	ws := BinWidth(xs, BinSturges)
	wf := BinWidth(xs, BinFreedmanDiaconis)
	wm := BinWidth(xs, BinMinWidth)
	if wm != math.Min(ws, wf) {
		t.Errorf("min rule: sturges=%v fd=%v min=%v", ws, wf, wm)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{5, 5, 5}, BinMinWidth)
	if len(h.Counts) != 1 || h.Counts[0] != 3 {
		t.Errorf("constant data histogram: %+v", h)
	}
	h = NewHistogram(nil, BinSturges)
	if h.N != 0 || len(h.Counts) != 1 {
		t.Errorf("empty histogram: %+v", h)
	}
}

// TestHistogramDensityIntegratesToOne: the bin densities count/(N*width)
// integrate to one, so every sample lands in exactly one bin.
func TestHistogramDensityIntegratesToOne(t *testing.T) {
	xs := normData(2, 5000, 0, 1)
	h := NewHistogram(xs, BinFreedmanDiaconis)
	integral := 0.0
	for i := range h.Counts {
		w := h.Edges[i+1] - h.Edges[i]
		integral += float64(h.Counts[i]) / (float64(h.N) * w) * w
	}
	if !almostEq(integral, 1, 1e-9) {
		t.Errorf("density integral = %v", integral)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); got != c.want {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	e := NewECDF(normData(3, 200, 0, 1))
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return e.Eval(a) <= e.Eval(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKSStatisticIdentity(t *testing.T) {
	xs := normData(4, 500, 0, 1)
	if d := KSStatistic(xs, xs); d != 0 {
		t.Errorf("KS(x,x) = %v, want 0", d)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Errorf("KS disjoint = %v, want 1", d)
	}
}

func TestKSSymmetryProperty(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		a := normData(uint64(seedA)+1, 80, 0, 1)
		b := normData(uint64(seedB)+9999, 120, 0.5, 2)
		return almostEq(KSStatistic(a, b), KSStatistic(b, a), 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestKSStatisticNaNTiesFirst: NaNs sort first and tie, as sort.Float64s
// orders them, so they form the walk's first tie group instead of stalling
// it. a = [NaN 1 2], b = [NaN 3]: the gaps after NaN, 1 and 2 are 1/6, 1/6
// and 1/2.
func TestKSStatisticNaNTiesFirst(t *testing.T) {
	nan := math.NaN()
	got := make(chan float64, 1)
	go func() { got <- KSStatistic([]float64{1, nan, 2}, []float64{3, nan}) }()
	select {
	case d := <-got:
		if d != 0.5 {
			t.Fatalf("KS = %v, want 0.5", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("KSStatistic did not return within 10s on NaN input")
	}
	if d := KSStatistic([]float64{nan, nan}, []float64{nan}); d != 0 {
		t.Fatalf("all-NaN KS = %v, want 0", d)
	}
}

func TestKSAgainstKnownValue(t *testing.T) {
	// Hand-computed: a={1,2,3,4}, b={3,4,5,6}: max |Fa-Fb| = 0.5 at x in [2,4).
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	if d := KSStatistic(a, b); !almostEq(d, 0.5, 1e-15) {
		t.Errorf("KS = %v, want 0.5", d)
	}
}

func TestKDEModesUnimodalVsBimodal(t *testing.T) {
	uni := normData(5, 3000, 10, 1)
	if m := CountModes(uni); m != 1 {
		t.Errorf("unimodal data: %d modes", m)
	}
	bi := bimodalData(6, 3000, 5, 15, 1)
	if m := CountModes(bi); m != 2 {
		t.Errorf("bimodal data: %d modes", m)
	}
	tri := append(bimodalData(7, 2000, 0, 10, 0.8), normData(8, 1000, 20, 0.8)...)
	if m := CountModes(tri); m != 3 {
		t.Errorf("trimodal data: %d modes", m)
	}
}

func TestKDEConstantData(t *testing.T) {
	if m := CountModes([]float64{3, 3, 3, 3}); m != 1 {
		t.Errorf("constant data: %d modes", m)
	}
	if m := CountModes(nil); m != 0 {
		t.Errorf("empty data: %d modes", m)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	k := NewKDE(normData(9, 500, 0, 1))
	xs, ys := k.Grid(2000)
	integral := 0.0
	for i := 1; i < len(xs); i++ {
		integral += (ys[i] + ys[i-1]) / 2 * (xs[i] - xs[i-1])
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("KDE integral = %v", integral)
	}
}

func TestHistogramPeaks(t *testing.T) {
	bi := bimodalData(10, 5000, 0, 10, 1)
	h := NewHistogram(bi, BinMinWidth)
	if p := h.Peaks(0.2); p != 2 {
		t.Errorf("bimodal histogram peaks = %d", p)
	}
}

func TestMeanCI(t *testing.T) {
	xs := normData(110, 400, 50, 5)
	ci := MeanCI(xs, 0.95)
	if !ci.Contains(Mean(xs)) {
		t.Error("CI must contain the sample mean")
	}
	if !ci.Contains(50) {
		t.Errorf("95%% CI %v should contain true mean 50 for this seed", ci)
	}
	wide := MeanCI(xs, 0.99)
	if wide.High-wide.Low <= ci.High-ci.Low {
		t.Error("99% CI must be wider than 95% CI")
	}
}

func TestRelativeCIHalfWidthShrinks(t *testing.T) {
	xs := normData(12, 2000, 100, 10)
	small := RelativeCIHalfWidth(xs[:20], 0.95)
	big := RelativeCIHalfWidth(xs, 0.95)
	if big >= small {
		t.Errorf("rel CI width did not shrink: n=20 %v vs n=2000 %v", small, big)
	}
	if math.IsInf(RelativeCIHalfWidth(xs[:1], 0.95), 1) == false {
		t.Error("n=1 should give +Inf")
	}
}

func TestQuantileCI(t *testing.T) {
	xs := normData(13, 1000, 0, 1)
	ci := QuantileCI(xs, 0.5, 0.95)
	med := Median(xs)
	if !ci.Contains(med) {
		t.Errorf("median CI %v excludes median %v", ci, med)
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := normData(14, 300, 10, 2)
	ci := BootstrapCI(rng, xs, 500, 0.95, Mean)
	if !ci.Contains(10) {
		t.Errorf("bootstrap CI %v excludes true mean", ci)
	}
	if ci.High-ci.Low <= 0 {
		t.Error("bootstrap CI has non-positive width")
	}
}

func TestSplitHalves(t *testing.T) {
	a, b := SplitHalves([]float64{1, 2, 3, 4, 5})
	if len(a) != 2 || len(b) != 3 {
		t.Errorf("split = %v | %v", a, b)
	}
}

func TestRandomSplitPreservesAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	xs := normData(15, 101, 0, 1)
	a, b := RandomSplit(rng, xs)
	if len(a)+len(b) != len(xs) {
		t.Errorf("split sizes %d+%d != %d", len(a), len(b), len(xs))
	}
	sumAll := Sum(xs)
	if !almostEq(Sum(a)+Sum(b), sumAll, 1e-9) {
		t.Error("random split lost observations")
	}
}

// TestRankMatchesSortSliceReference cross-checks the slices.SortFunc Rank
// against a direct recomputation, including midrank tie handling.
func TestRankMatchesSortSliceReference(t *testing.T) {
	cases := [][]float64{
		{},
		{7},
		{3, 1, 2},
		{1, 2, 2, 3},
		{5, 5, 5, 5},
		{2, 1, 2, 3, 1, 2},
		benchData(257),
	}
	for _, xs := range cases {
		got := Rank(xs)
		want := rankReference(xs)
		if len(got) != len(want) {
			t.Fatalf("Rank(%v): length %d, want %d", xs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Rank(%v)[%d] = %v, want %v", xs, i, got[i], want[i])
			}
		}
	}
}

// rankReference computes midranks directly: rank(x) = #smaller + (#equal+1)/2.
func rankReference(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		smaller, equal := 0, 0
		for _, y := range xs {
			if y < x {
				smaller++
			} else if y == x {
				equal++
			}
		}
		out[i] = float64(smaller) + (float64(equal)+1)/2
	}
	return out
}

// TestQuantileSelectMatchesSorted checks the quickselect quantile returns
// exactly the sorted-path value for every percentile on varied shapes.
func TestQuantileSelectMatchesSorted(t *testing.T) {
	shapes := map[string][]float64{
		"normal":   benchData(501),
		"sorted":   SortedCopy(benchData(500)),
		"constant": {4, 4, 4, 4, 4, 4, 4},
		"two":      {9, 1},
		"one":      {3},
		"ties":     {1, 3, 1, 3, 1, 3, 2, 2},
	}
	ps := []float64{0, 0.01, 0.025, 0.25, 0.5, 0.75, 0.975, 0.99, 1}
	for name, xs := range shapes {
		for _, p := range ps {
			want := Quantile(xs, p)
			buf := append([]float64(nil), xs...)
			got := quantileSelect(buf, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s p=%v: quantileSelect = %v, want %v", name, p, got, want)
			}
		}
	}
	if !math.IsNaN(quantileSelect(nil, 0.5)) {
		t.Error("quantileSelect(nil) should be NaN")
	}
}

// bootstrapReference is the serial test oracle of BootstrapCI's resampling
// scheme, written from its documented contract rather than its code: one
// seed from rng feeds a sequential SplitMix64 generator, each resample
// takes the generator's next two outputs as its PCG seed words and draws
// its indices through rand.Rand.IntN, and the resample statistics come
// back sorted.
func bootstrapReference(rng *rand.Rand, xs []float64, resamples int, stat func([]float64) float64) []float64 {
	sm := rng.Uint64()
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	out := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := range out {
		hi := next()
		lo := next()
		draw := rand.New(rand.NewPCG(hi, lo))
		for i := range buf {
			buf[i] = xs[draw.IntN(len(xs))]
		}
		out[r] = stat(buf)
	}
	return SortedCopy(out)
}

// TestBootstrapCIMatchesSortedPath checks the parallel, select-based
// BootstrapCI bit for bit against the serial sort-everything oracle. The
// sample sizes cover IntN's power-of-two mask (1, 256) and its
// multiply-and-reject path.
func TestBootstrapCIMatchesSortedPath(t *testing.T) {
	for _, n := range []int{1, 7, 256, 300} {
		xs := benchData(n)
		for _, level := range []float64{0.9, 0.95, 0.99} {
			for _, stat := range []func([]float64) float64{Mean, Median} {
				got := BootstrapCI(rand.New(rand.NewPCG(3, 4)), xs, 500, level, stat)
				boots := bootstrapReference(rand.New(rand.NewPCG(3, 4)), xs, 500, stat)
				alpha := 1 - level
				wantLow := QuantileSorted(boots, alpha/2)
				wantHigh := QuantileSorted(boots, 1-alpha/2)
				if got.Low != wantLow || got.High != wantHigh {
					t.Errorf("n %d level %v: CI [%v, %v], want [%v, %v]",
						n, level, got.Low, got.High, wantLow, wantHigh)
				}
			}
		}
	}
}

// TestBootstrapCIIndependentOfWorkers checks the determinism contract: the
// interval bits do not depend on GOMAXPROCS, including resample counts
// below the worker count.
func TestBootstrapCIIndependentOfWorkers(t *testing.T) {
	xs := bimodalData(21, 301, 10, 14, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, resamples := range []int{1, 2, 500} {
		var want Interval
		for i, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got := BootstrapCI(rand.New(rand.NewPCG(5, 6)), xs, resamples, 0.95, Mean)
			if i == 0 {
				want = got
				continue
			}
			if math.Float64bits(got.Low) != math.Float64bits(want.Low) ||
				math.Float64bits(got.High) != math.Float64bits(want.High) {
				t.Errorf("resamples %d GOMAXPROCS %d: CI %v, want %v (GOMAXPROCS 1)",
					resamples, procs, got, want)
			}
		}
	}
}

// TestBootstrapCIDrawsOneSeed checks BootstrapCI advances rng by exactly
// one draw, and leaves it untouched on empty input.
func TestBootstrapCIDrawsOneSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	BootstrapCI(rng, benchData(50), 100, 0.95, Mean)
	after := rng.Uint64()
	ref := rand.New(rand.NewPCG(7, 8))
	ref.Uint64()
	if want := ref.Uint64(); after != want {
		t.Errorf("rng advanced by more than one draw: next %x, want %x", after, want)
	}

	if ci := BootstrapCI(rng, nil, 100, 0.9, Mean); ci != (Interval{Level: 0.9}) {
		t.Errorf("empty xs: CI %+v, want the zero interval at level 0.9", ci)
	}
	if want := ref.Uint64(); rng.Uint64() != want {
		t.Error("empty xs advanced rng")
	}
}

// TestBootstrapCIMedianConcurrent runs a sorting statistic across several
// workers; under -race it checks that the workers share no buffer.
func TestBootstrapCIMedianConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	xs := bimodalData(22, 400, 5, 9, 0.5)
	ci := BootstrapCI(rand.New(rand.NewPCG(9, 10)), xs, 400, 0.95, Median)
	if med := Median(xs); !ci.Contains(med) {
		t.Errorf("median CI %v excludes the sample median %v", ci, med)
	}
}

// TestBootstrapCIAgreesWithTInterval checks the bootstrap mean CI against
// the t interval on normal data, where both are valid: each endpoint lies
// within 10% of the t interval's width of its counterpart.
func TestBootstrapCIAgreesWithTInterval(t *testing.T) {
	for _, n := range []int{300, 31252} {
		xs := normData(23, n, 1, 0.05)
		boot := BootstrapCI(rand.New(rand.NewPCG(uint64(n), 0x5eed)), xs, 500, 0.95, Mean)
		tci := MeanCI(xs, 0.95)
		tol := 0.1 * (tci.High - tci.Low)
		if math.Abs(boot.Low-tci.Low) > tol || math.Abs(boot.High-tci.High) > tol {
			t.Errorf("n %d: bootstrap CI [%v, %v] strays more than %v from t CI [%v, %v]",
				n, boot.Low, boot.High, tol, tci.Low, tci.High)
		}
	}
}
