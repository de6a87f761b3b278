package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// mannWhitneyReference is MannWhitneyU as it was before the merge walk:
// midrank the concatenation with Rank, sum X's ranks, and take the tie term
// from a sort of the concatenation. It is the oracle FuzzMannWhitneyU holds
// the merge walk to on NaN-free inputs.
func mannWhitneyReference(xs, ys []float64) TestResult {
	nx, ny := float64(len(xs)), float64(len(ys))
	if nx == 0 || ny == 0 {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	all := make([]float64, 0, len(xs)+len(ys))
	all = append(all, xs...)
	all = append(all, ys...)
	ranks := Rank(all)
	var rx float64
	for i := range xs {
		rx += ranks[i]
	}
	u := rx - nx*(nx+1)/2
	mu := nx * ny / 2
	n := nx + ny
	tieSum := 0.0
	sorted := SortedCopy(all)
	i := 0
	for i < len(sorted) {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[i] {
			j++
		}
		t := float64(j - i + 1)
		if t > 1 {
			tieSum += t*t*t - t
		}
		i = j + 1
	}
	sigma2 := nx * ny / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if sigma2 <= 0 {
		return TestResult{Statistic: u, PValue: 1}
	}
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

// sameBits reports whether two test results agree bit for bit.
func sameBits(a, b TestResult) bool {
	return math.Float64bits(a.Statistic) == math.Float64bits(b.Statistic) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue) &&
		math.Float64bits(a.DF) == math.Float64bits(b.DF)
}

// mannWhitneySides decodes a fuzz input into two NaN-free sides split at
// cut. In tie mode each byte is a half-integer in [-8, 7.5], zero signed by
// the byte's top bit; otherwise each 8 bytes are a float64, NaNs dropped.
func mannWhitneySides(data []byte, cut uint16, ties bool) (xs, ys []float64) {
	var vals []float64
	if ties {
		for _, b := range data {
			v := float64(int(b&0x1f)-16) / 2
			if v == 0 && b&0x80 != 0 {
				v = math.Copysign(0, -1)
			}
			vals = append(vals, v)
		}
	} else {
		for ; len(data) >= 8; data = data[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); v == v {
				vals = append(vals, v)
			}
		}
	}
	k := int(cut) % (len(vals) + 1)
	return vals[:k], vals[k:]
}

// FuzzMannWhitneyU holds the merge walk to the Rank-based oracle bit for
// bit on NaN-free inputs: heavy ties, ±0, infinities, unequal and empty
// sides, in input order and with either side presorted.
func FuzzMannWhitneyU(f *testing.F) {
	rng := rand.New(rand.NewPCG(41, 43))
	random := make([]byte, 600)
	for i := range random {
		random[i] = byte(rng.IntN(256))
	}
	f.Add(random, uint16(250), true)
	f.Add(random, uint16(31), false)
	f.Add([]byte{0x10, 0x90, 0x10, 0x90, 0x11, 0x0f}, uint16(2), true)
	f.Add([]byte{0x10, 0x10, 0x10}, uint16(1), true)
	f.Add([]byte{1, 2, 3}, uint16(0), true)
	f.Add([]byte{1, 1, 2, 3, 4, 4, 4, 5}, uint16(3), true)
	f.Add(random[:24], uint16(10), true)
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, ties bool) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		xs, ys := mannWhitneySides(data, cut, ties)
		want := mannWhitneyReference(xs, ys)
		for _, in := range [][2][]float64{{xs, ys}, {SortedCopy(xs), ys}, {xs, SortedCopy(ys)}} {
			if got := MannWhitneyU(in[0], in[1]); !sameBits(got, want) {
				t.Fatalf("MannWhitneyU(%v, %v) = %+v, reference %+v", in[0], in[1], got, want)
			}
		}
	})
}

// TestMannWhitneyNaN: a NaN on either side, wherever it sits, makes the
// statistic and the p-value NaN instead of a number that depends on where
// the sort put it.
func TestMannWhitneyNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range [][2][]float64{
		{{nan}, {1, 2}},
		{{1, 2, 3}, {2, nan, 4}},
		{{3, 1, nan}, {5, 6, 7, 8}},
		{{nan, nan}, {nan}},
		{{0, 1, 2, 3, 4, 5}, {nan, 9, 10, 11, 12}},
	} {
		r := MannWhitneyU(c[0], c[1])
		if !math.IsNaN(r.Statistic) || !math.IsNaN(r.PValue) {
			t.Errorf("MannWhitneyU(%v, %v) = %+v, want NaN statistic and p-value", c[0], c[1], r)
		}
	}
}

func TestMannWhitneySameVsShifted(t *testing.T) {
	a := normData(24, 300, 0, 1)
	b := normData(25, 300, 0, 1)
	if r := MannWhitneyU(a, b); r.PValue < 0.01 {
		t.Errorf("same dist rejected: p=%v", r.PValue)
	}
	c := normData(26, 300, 1, 1)
	if r := MannWhitneyU(a, c); r.PValue > 1e-6 {
		t.Errorf("shift not detected: p=%v", r.PValue)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	r := MannWhitneyU([]float64{1, 1}, []float64{1, 1, 1})
	if r.PValue != 1 {
		t.Errorf("all tied p=%v, want 1", r.PValue)
	}
}

func TestKSTestPValues(t *testing.T) {
	a := normData(27, 400, 0, 1)
	b := normData(28, 400, 0, 1)
	if r := KSTest(a, b); r.PValue < 0.01 {
		t.Errorf("same dist KS rejected: D=%v p=%v", r.Statistic, r.PValue)
	}
	// Same mean, different shape: KS must detect what a mean test cannot.
	c := normData(29, 400, 0, 3)
	if r := KSTest(a, c); r.PValue > 1e-4 {
		t.Errorf("variance change not detected: p=%v", r.PValue)
	}
}

func TestJarqueBera(t *testing.T) {
	norm := normData(31, 2000, 5, 1)
	if r := JarqueBera(norm); r.PValue < 0.01 {
		t.Errorf("normal data rejected by JB: p=%v", r.PValue)
	}
	logn := make([]float64, 2000)
	for i, v := range normData(32, 2000, 0, 0.8) {
		logn[i] = math.Exp(v)
	}
	if r := JarqueBera(logn); r.PValue > 1e-6 {
		t.Errorf("lognormal data accepted by JB: p=%v", r.PValue)
	}
	if r := JarqueBera([]float64{7, 7, 7, 7, 7, 7, 7, 7, 7}); r.PValue != 1 {
		t.Errorf("constant data JB p=%v", r.PValue)
	}
}

func TestAndersonDarling2(t *testing.T) {
	a := normData(33, 300, 0, 1)
	b := normData(34, 300, 0, 1)
	c := normData(35, 300, 2, 1)
	same := AndersonDarling2(a, b)
	diff := AndersonDarling2(a, c)
	if diff <= same {
		t.Errorf("AD2 same=%v diff=%v", same, diff)
	}
}

func TestAutocorrelationIID(t *testing.T) {
	xs := normData(36, 5000, 0, 1)
	if r := Autocorrelation(xs, 1); math.Abs(r) > 0.05 {
		t.Errorf("iid lag-1 autocorr = %v", r)
	}
	if Autocorrelation(xs, 0) != 1 {
		t.Error("lag-0 autocorr must be 1")
	}
	if !math.IsNaN(Autocorrelation(xs, -1)) {
		t.Error("negative lag must be NaN")
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	iid := normData(37, 2000, 0, 1)
	if ess := EffectiveSampleSize(iid); ess < 1000 {
		t.Errorf("iid ESS = %v, want near n", ess)
	}
	// Strongly autocorrelated series: ESS much smaller than n.
	ar := make([]float64, 2000)
	prev := 0.0
	r := normData(38, 2000, 0, 1)
	for i := range ar {
		prev = 0.95*prev + r[i]
		ar[i] = prev
	}
	if ess := EffectiveSampleSize(ar); ess > 500 {
		t.Errorf("AR(0.95) ESS = %v, want << n", ess)
	}
}

func TestWilcoxonSignedRank(t *testing.T) {
	// Paired data with a consistent positive shift must reject.
	x := normData(50, 100, 10, 1)
	y := make([]float64, len(x))
	noise := normData(51, 100, 0, 0.2)
	for i := range x {
		y[i] = x[i] - 0.5 + noise[i]
	}
	if r := WilcoxonSignedRank(x, y); r.PValue > 1e-4 {
		t.Errorf("consistent shift not detected: p=%v", r.PValue)
	}
	// Symmetric noise around zero must not reject.
	z := make([]float64, len(x))
	sym := normData(52, 100, 0, 0.3)
	for i := range x {
		z[i] = x[i] + sym[i]
	}
	if r := WilcoxonSignedRank(x, z); r.PValue < 0.01 {
		t.Errorf("symmetric noise rejected: p=%v", r.PValue)
	}
	// Identical pairs: p = 1.
	if r := WilcoxonSignedRank(x, x); r.PValue != 1 {
		t.Errorf("identical pairs p=%v", r.PValue)
	}
	// Mismatched lengths: NaN.
	if r := WilcoxonSignedRank(x[:3], x[:2]); !math.IsNaN(r.PValue) {
		t.Error("length mismatch accepted")
	}
}

func TestWilcoxonPairedPower(t *testing.T) {
	// The paired test must detect a shift hidden under large shared noise
	// where the unpaired Mann-Whitney cannot — the statistical core of
	// duet benchmarking.
	shared := normData(53, 80, 0, 10) // big common interference
	small := 0.2
	x := make([]float64, len(shared))
	y := make([]float64, len(shared))
	jitter := normData(54, 80, 0, 0.05)
	for i := range shared {
		x[i] = 10 + shared[i] + small + jitter[i]
		y[i] = 10 + shared[i]
	}
	paired := WilcoxonSignedRank(x, y)
	unpaired := MannWhitneyU(x, y)
	if paired.PValue > 1e-6 {
		t.Errorf("paired test missed the shift: p=%v", paired.PValue)
	}
	if unpaired.PValue < 0.05 {
		t.Errorf("unpaired test unexpectedly powerful: p=%v", unpaired.PValue)
	}
}

func TestCliffsDelta(t *testing.T) {
	// Fully separated: delta = +1 / -1.
	a := []float64{10, 11, 12}
	b := []float64{1, 2, 3}
	if d := CliffsDelta(a, b); d != 1 {
		t.Errorf("separated delta = %v", d)
	}
	if d := CliffsDelta(b, a); d != -1 {
		t.Errorf("reverse delta = %v", d)
	}
	// Identical samples: 0.
	if d := CliffsDelta(a, a); math.Abs(d) > 1e-12 {
		t.Errorf("self delta = %v", d)
	}
	// Known small case: a={1,2}, b={1,3}: pairs (1,1)t (1,3)< (2,1)> (2,3)<
	// U = 1 + 0.5 = 1.5, delta = 2*1.5/4 - 1 = -0.25.
	if d := CliffsDelta([]float64{1, 2}, []float64{1, 3}); math.Abs(d+0.25) > 1e-12 {
		t.Errorf("tie case delta = %v", d)
	}
	// Overlapping normals with small shift: small positive delta.
	x := normData(60, 2000, 10.2, 1)
	y := normData(61, 2000, 10.0, 1)
	d := CliffsDelta(x, y)
	if d < 0.05 || d > 0.25 {
		t.Errorf("small shift delta = %v", d)
	}
	if !math.IsNaN(CliffsDelta(nil, a)) {
		t.Error("empty input accepted")
	}
}

// KSTest performs the two-sample Kolmogorov-Smirnov test. The statistic is
// the paper's distribution similarity metric (§V-A3); the p-value uses the
// asymptotic Kolmogorov distribution with the effective sample size.
func KSTest(xs, ys []float64) TestResult {
	d := KSStatistic(xs, ys)
	nx, ny := float64(len(xs)), float64(len(ys))
	if nx == 0 || ny == 0 {
		return TestResult{Statistic: d, PValue: math.NaN()}
	}
	ne := nx * ny / (nx + ny)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return TestResult{Statistic: d, PValue: KolmogorovQ(lambda)}
}
