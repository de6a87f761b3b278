package similarity

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sharp/internal/stats"
)

// compute evaluates the named metric on the two raw samples: the uncached
// oracle that ComputeGroups and MatrixGroups must match bit for bit. NAMD
// uses the trimmed (quantile-matched) variant so unequal lengths are
// accepted.
func compute(m Metric, x, y []float64) (float64, error) {
	switch m {
	case MetricNAMD:
		return namdTrimmed(x, y)
	case MetricKS:
		return KS(x, y), nil
	case MetricWasserstein:
		return wasserstein1(x, y), nil
	case MetricJSD:
		return JensenShannon(x, y, 0), nil
	case MetricOverlap:
		return OverlapCoefficient(x, y, 0), nil
	case MetricAD:
		return stats.AndersonDarling2(x, y), nil
	default:
		return nan(), errUnknownMetric(m)
	}
}

// namdTrimmed is NAMD on raw samples of any lengths: the larger sample is
// quantile-matched down to the smaller one (ComputeGroups' NAMD, uncached).
func namdTrimmed(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return math.NaN(), errEmptyNAMD
	}
	if len(x) == len(y) {
		return NAMDSorted(x, y)
	}
	n := min(len(x), len(y))
	return NAMD(quantileResampleSorted(stats.SortedCopy(x), n), quantileResampleSorted(stats.SortedCopy(y), n))
}

// wasserstein1 is the 1-Wasserstein distance of two raw samples.
func wasserstein1(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return math.NaN()
	}
	return wasserstein1Sorted(stats.SortedCopy(x), stats.SortedCopy(y))
}

func norm(seed uint64, n int, mu, sigma float64) []float64 {
	r := rand.New(rand.NewPCG(seed, seed*31+7))
	out := make([]float64, n)
	for i := range out {
		out[i] = mu + sigma*r.NormFloat64()
	}
	return out
}

func bimodal(seed uint64, n int, mu1, mu2, sigma float64) []float64 {
	r := rand.New(rand.NewPCG(seed, seed*17+3))
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

func TestNAMDIdentical(t *testing.T) {
	x := norm(1, 200, 10, 1)
	v, err := NAMD(x, x)
	if err != nil || v != 0 {
		t.Fatalf("NAMD(x,x) = %v, %v", v, err)
	}
}

func TestNAMDLengthMismatch(t *testing.T) {
	if _, err := NAMD([]float64{1, 2}, []float64{1}); err != ErrLengthMismatch {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestNAMDKnownValue(t *testing.T) {
	// x={1,3}, y={2,4}: |d|=1 each, mad=1, means 2 and 3.
	// NAMD = 0.5*(1/2 + 1/3) = 5/12.
	v, err := NAMD([]float64{1, 3}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-5.0/12) > 1e-12 {
		t.Fatalf("NAMD = %v, want %v", v, 5.0/12)
	}
}

func TestNAMDSymmetryProperty(t *testing.T) {
	f := func(sa, sb uint16) bool {
		x := norm(uint64(sa)+1, 100, 10, 2)
		y := norm(uint64(sb)+5000, 100, 12, 3)
		a, err1 := NAMD(x, y)
		b, err2 := NAMD(y, x)
		return err1 == nil && err2 == nil && math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The paper's key observation: same mean but different shape gives
// NAMD ~ 0-ish signal while KS is large (Fig. 5).
func TestNAMDMissesShapeKSDetects(t *testing.T) {
	// The paper's mechanism (Fig. 5b: NAMD 0.00 but KS 0.21): execution-time
	// modes differ by a fraction of a percent of the mean, so the
	// mean-normalized NAMD rounds to zero, while the scale-free KS statistic
	// sees the modality change plainly. Model that: mean 10s, modes 0.4%
	// apart.
	x := norm(2, 2000, 10.0, 0.005)           // unimodal around 10.000
	y := bimodal(3, 2000, 9.98, 10.02, 0.005) // two modes at 9.98/10.02
	namd, err := NAMDSorted(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ks := KS(x, y)
	if ks < 0.3 {
		t.Fatalf("KS = %v, want large for modality change", ks)
	}
	if namd > 0.01 {
		t.Fatalf("NAMD = %v, want ~0 (mean-normalized differences are sub-percent)", namd)
	}
	// A 20% mean shift with unchanged shape: now NAMD responds strongly.
	z := norm(4, 2000, 12, 0.005)
	namdShift, _ := NAMDSorted(x, z)
	if namdShift < 0.15 {
		t.Fatalf("NAMD misses a 20%% mean shift: %v", namdShift)
	}
}

func TestKSRange(t *testing.T) {
	x := norm(5, 500, 0, 1)
	y := norm(6, 500, 0, 1)
	ks := KS(x, y)
	if ks < 0 || ks > 1 {
		t.Fatalf("KS out of range: %v", ks)
	}
	if ks > 0.12 {
		t.Fatalf("same-distribution KS = %v, unexpectedly large", ks)
	}
	if KS(x, []float64{99, 100, 101}) != 1 {
		t.Fatal("disjoint KS != 1")
	}
}

func TestWasserstein1(t *testing.T) {
	// Point masses: W1({0},{3}) = 3.
	if w := wasserstein1([]float64{0, 0}, []float64{3, 3}); math.Abs(w-3) > 1e-12 {
		t.Fatalf("W1 = %v, want 3", w)
	}
	// Shift property: W1(x, x+c) = c.
	x := norm(7, 1000, 10, 2)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v + 1.5
	}
	if w := wasserstein1(x, y); math.Abs(w-1.5) > 1e-9 {
		t.Fatalf("W1 shift = %v, want 1.5", w)
	}
	// Unequal lengths path.
	w := wasserstein1(norm(8, 333, 0, 1), norm(9, 777, 0, 1))
	if w > 0.2 {
		t.Fatalf("W1 same dist unequal n = %v", w)
	}
}

func TestJensenShannonBounds(t *testing.T) {
	x := norm(10, 1000, 0, 1)
	y := norm(11, 1000, 0, 1)
	same := JensenShannon(x, y, 0)
	if same < 0 || same > 1 {
		t.Fatalf("JSD out of [0,1]: %v", same)
	}
	far := JensenShannon(x, norm(12, 1000, 50, 1), 0)
	if far < 0.95 {
		t.Fatalf("disjoint JSD = %v, want ~1", far)
	}
	if far <= same {
		t.Fatal("JSD ordering violated")
	}
}

func TestOverlapCoefficient(t *testing.T) {
	x := norm(13, 2000, 0, 1)
	if ov := OverlapCoefficient(x, x, 0); math.Abs(ov-1) > 1e-12 {
		t.Fatalf("self overlap = %v", ov)
	}
	if ov := OverlapCoefficient(x, norm(14, 2000, 100, 1), 0); ov > 0.01 {
		t.Fatalf("disjoint overlap = %v", ov)
	}
}

func TestComputeDispatch(t *testing.T) {
	x := norm(15, 100, 5, 1)
	y := norm(16, 120, 5, 1)
	for _, m := range All() {
		v, err := compute(m, x, y)
		if err != nil {
			t.Errorf("%s: %v", m, err)
		}
		if math.IsNaN(v) {
			t.Errorf("%s returned NaN", m)
		}
	}
	if _, err := compute("bogus", x, y); err == nil {
		t.Error("unknown metric must error")
	}
}

func TestNAMDTrimmedUnequal(t *testing.T) {
	x := norm(17, 500, 10, 1)
	y := norm(18, 900, 10, 1)
	v, err := namdTrimmed(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.05 {
		t.Fatalf("same-dist trimmed NAMD = %v", v)
	}
}

func TestMetricsNonNegativeProperty(t *testing.T) {
	f := func(sa, sb uint16, shift int8) bool {
		x := norm(uint64(sa)+100, 150, 20, 3)
		y := norm(uint64(sb)+900, 150, 20+float64(shift)/10, 3)
		ks := KS(x, y)
		w := wasserstein1(x, y)
		ad := stats.AndersonDarling2(x, y)
		nv, err := NAMDSorted(x, y)
		return ks >= 0 && w >= 0 && ad >= -1e-9 && err == nil && nv >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatrix(t *testing.T) {
	groups := [][]float64{
		norm(30, 300, 10, 1),
		norm(31, 300, 10, 1),
		norm(32, 300, 14, 1),
	}
	m, err := MatrixGroups(MetricKS, NewGroups(groups), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v", i, i, m[i][i])
		}
		for j := range m {
			if math.Abs(m[i][j]-m[j][i]) > 1e-12 {
				t.Errorf("asymmetric at %d,%d", i, j)
			}
		}
	}
	if m[0][2] < 0.8 {
		t.Errorf("shifted group KS = %v, want large", m[0][2])
	}
	if m[0][1] > 0.15 {
		t.Errorf("same-dist KS = %v, want small", m[0][1])
	}
	ov, err := MatrixGroups(MetricOverlap, NewGroups(groups), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ov[1][1] != 1 {
		t.Errorf("overlap diagonal = %v", ov[1][1])
	}
	if _, err := MatrixGroups("bogus", NewGroups(groups), 1); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestDivergenceSortedMatchesUnsorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	x := make([]float64, 200)
	y := make([]float64, 150) // unequal lengths exercise the trimmed path
	for i := range x {
		x[i] = 10 + 2*rng.NormFloat64()
	}
	for i := range y {
		y[i] = 11 + 3*rng.NormFloat64()
	}
	sx, sy := stats.SortedCopy(x), stats.SortedCopy(y)
	ks, err := DivergenceSorted(MetricKS, sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	if want := KS(x, y); ks != want {
		t.Errorf("sorted KS = %v, want %v", ks, want)
	}
	namd, err := DivergenceSorted(MetricNAMD, sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := namdTrimmed(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if namd != want {
		t.Errorf("sorted NAMD = %v, want %v", namd, want)
	}
	// Equal lengths take the direct pairing path.
	namdEq, err := NAMDTrimmedSorted(sx, sx)
	if err != nil {
		t.Fatal(err)
	}
	if namdEq != 0 {
		t.Errorf("self NAMD = %v, want 0", namdEq)
	}
	if _, err := DivergenceSorted(MetricWasserstein, sx, sy); err == nil {
		t.Error("metric without a sorted fast path accepted")
	}
	if _, err := NAMDTrimmedSorted(nil, sy); err == nil {
		t.Error("empty sample accepted")
	}
}
