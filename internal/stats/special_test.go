package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); !almostEq(got, want, 1e-10) {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.2, 1, 3} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); !almostEq(got, want, 1e-10) {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1, 1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := BetaInc(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("BetaInc(1,1,%v) = %v", x, got)
		}
	}
	// I_x(2, 2) = x^2(3-2x).
	for _, x := range []float64{0.25, 0.5, 0.75} {
		want := x * x * (3 - 2*x)
		if got := BetaInc(2, 2, x); !almostEq(got, want, 1e-10) {
			t.Errorf("BetaInc(2,2,%v) = %v, want %v", x, got, want)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := BetaInc(3, 5, 0.3) + BetaInc(5, 3, 0.7); !almostEq(got, 1, 1e-10) {
		t.Errorf("beta symmetry violated: %v", got)
	}
}

func TestStudentTCDF(t *testing.T) {
	// t=0 -> 0.5 for any df.
	for _, df := range []float64{1, 5, 30, 200} {
		if got := StudentTCDF(0, df); !almostEq(got, 0.5, 1e-12) {
			t.Errorf("T(0, %v) = %v", df, got)
		}
	}
	// df=1 is Cauchy: CDF(1) = 0.75.
	if got := StudentTCDF(1, 1); !almostEq(got, 0.75, 1e-9) {
		t.Errorf("T(1,1) = %v, want 0.75", got)
	}
	// Large df approaches normal: CDF(1.96, 1e6) ~ 0.975.
	if got := StudentTCDF(1.959964, 1e6); !almostEq(got, 0.975, 1e-4) {
		t.Errorf("T(1.96, 1e6) = %v, want ~0.975", got)
	}
	// Known table value: t_{0.975, 10} = 2.228139.
	if got := StudentTCDF(2.228139, 10); !almostEq(got, 0.975, 1e-5) {
		t.Errorf("T(2.228,10) = %v, want 0.975", got)
	}
}

func TestChiSquareCDF(t *testing.T) {
	// k=2 is Exponential(1/2): CDF(x) = 1 - exp(-x/2).
	for _, x := range []float64{0.5, 2, 5.991} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); !almostEq(got, want, 1e-10) {
			t.Errorf("Chi2(%v,2) = %v, want %v", x, got, want)
		}
	}
	// 95th percentile of chi2(2) is 5.991.
	if got := ChiSquareCDF(5.991464, 2); !almostEq(got, 0.95, 1e-5) {
		t.Errorf("Chi2(5.991,2) = %v", got)
	}
}

func TestKolmogorovQ(t *testing.T) {
	// Known: Q(1.36) ~ 0.049, the classic 5% critical value.
	if got := KolmogorovQ(1.36); math.Abs(got-0.049) > 0.003 {
		t.Errorf("KolmogorovQ(1.36) = %v, want ~0.049", got)
	}
	if KolmogorovQ(0) != 1 {
		t.Error("Q(0) should be 1")
	}
	if got := KolmogorovQ(10); got > 1e-8 {
		t.Errorf("Q(10) = %v, want ~0", got)
	}
	// Monotone decreasing property.
	f := func(a8, b8 uint8) bool {
		a := float64(a8) / 64
		b := float64(b8) / 64
		if a > b {
			a, b = b, a
		}
		return KolmogorovQ(a) >= KolmogorovQ(b)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStudentTQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{3, 10, 50} {
		for _, p := range []float64{0.05, 0.5, 0.9, 0.975} {
			x := studentTQuantile(p, df)
			if got := StudentTCDF(x, df); !almostEq(got, p, 1e-7) {
				t.Errorf("df=%v p=%v roundtrip=%v", df, p, got)
			}
		}
	}
}
