package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
}

func TestEmptyAndSmall(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of 1 sample should be NaN")
	}
	if _, err := Describe(nil); err != ErrEmpty {
		t.Errorf("Describe(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestSkewnessSigns(t *testing.T) {
	right := []float64{1, 1, 1, 2, 2, 3, 5, 9, 20}
	if Skewness(right) <= 0 {
		t.Errorf("right-skewed data has skewness %v", Skewness(right))
	}
	left := make([]float64, len(right))
	for i, v := range right {
		left[i] = -v
	}
	if Skewness(left) >= 0 {
		t.Errorf("left-skewed data has skewness %v", Skewness(left))
	}
	sym := []float64{-2, -1, 0, 1, 2}
	if !almostEq(Skewness(sym), 0, 1e-12) {
		t.Errorf("symmetric data skewness = %v", Skewness(sym))
	}
}

func TestKurtosisUniformVsPeaked(t *testing.T) {
	// Uniform has excess kurtosis -1.2; heavy-tailed sample is positive.
	uniform := make([]float64, 2000)
	for i := range uniform {
		uniform[i] = float64(i) / 2000
	}
	if k := Kurtosis(uniform); k > -1.0 || k < -1.4 {
		t.Errorf("uniform kurtosis = %v, want near -1.2", k)
	}
	heavy := append(make([]float64, 0, 100), 50)
	for i := 0; i < 99; i++ {
		heavy = append(heavy, 0)
	}
	if Kurtosis(heavy) < 10 {
		t.Errorf("heavy-tail kurtosis = %v", Kurtosis(heavy))
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median 2, abs devs {1,1,0,0,2,4,7} -> median 1
	if m := MAD(xs); !almostEq(m, 1, 1e-12) {
		t.Errorf("MAD = %v, want 1", m)
	}
}

func TestCV(t *testing.T) {
	if CV([]float64{5, 5, 5}) != 0 {
		t.Error("CV of constant should be 0")
	}
	if !math.IsInf(CV([]float64{-1, 1}), 1) {
		t.Error("CV with zero mean should be +Inf")
	}
}

func TestDescribeConsistency(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	s, err := Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 9 || s.Median != 5 {
		t.Errorf("Describe = %+v", s)
	}
	if !almostEq(s.IQR, s.P75-s.P25, 1e-12) {
		t.Error("IQR inconsistent with quartiles")
	}
}

func TestMeanPropertyShiftScale(t *testing.T) {
	// Property: Mean(a*x + b) = a*Mean(x) + b; Variance(a*x+b) = a^2 Var(x).
	f := func(raw []float64, a8, b8 int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 2 {
			return true
		}
		a, b := float64(a8)/16+1, float64(b8)
		ys := make([]float64, len(xs))
		for i, v := range xs {
			ys[i] = a*v + b
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		if !almostEq(Mean(ys), a*Mean(xs)+b, 1e-6*scale) {
			return false
		}
		vscale := math.Max(1, Variance(xs))
		return almostEq(Variance(ys), a*a*Variance(xs), 1e-5*vscale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileProperties(t *testing.T) {
	// Property: quantile is monotone in p and bounded by min/max.
	f := func(raw []float64, p1, p2 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(p1) / 255
		b := float64(p2) / 255
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb && qa >= Min(xs) && qb <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Quantile(xs, 0.5); !almostEq(q, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	// Type-7: 0.25 quantile of {1,2,3,4} is 1.75.
	if q := Quantile(xs, 0.25); !almostEq(q, 1.75, 1e-12) {
		t.Errorf("q0.25 = %v, want 1.75", q)
	}
}

func TestRankTies(t *testing.T) {
	r := Rank([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", r, want)
		}
	}
}

func TestSumKahan(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 0, 10000001)
	xs = append(xs, 1)
	for i := 0; i < 10000000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1e-9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Kahan sum = %.18f, want %.18f", got, want)
	}
}

// TestSortedCopySortedInput: SortedCopy returns a fresh slice bit-equal to
// sort.Float64s of its input, whether the input is already ascending
// (signed zeros tied in either order, leading NaNs) or not.
func TestSortedCopySortedInput(t *testing.T) {
	nz, nan := math.Copysign(0, -1), math.NaN()
	long := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		v := float64(i/8 - 4)
		if v == 0 && i%2 == 1 {
			v = nz
		}
		long = append(long, v)
	}
	for _, in := range [][]float64{
		{1},
		{-1, nz, 0, nz, 0, 2},
		{0, nz, 0, nz},
		{nan, nan, -3, nz, 0, 5},
		{nan, 1, nan},
		{3, 1, 2, nz, 0},
		{2, 2, 1},
		long,
	} {
		orig := append([]float64(nil), in...)
		want := append([]float64(nil), in...)
		sort.Float64s(want)
		got := SortedCopy(in)
		if len(got) != len(want) {
			t.Fatalf("SortedCopy(%v) = %v", in, got)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SortedCopy(%v)[%d] = %v, sort.Float64s gives %v", in, i, got[i], want[i])
			}
		}
		if &got[0] == &in[0] {
			t.Fatalf("SortedCopy(%v) returned its input", in)
		}
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("SortedCopy mutated its input: %v, was %v", in, orig)
			}
		}
	}
	if got := SortedCopy(nil); len(got) != 0 {
		t.Fatalf("SortedCopy(nil) = %v", got)
	}
}
