package stats

import (
	"math"
	"testing"
)

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
