package stats

import "math"

// This file implements the special functions needed for p-values: the
// regularized incomplete gamma and beta functions, the Student t and
// chi-squared CDFs built on them, and the Kolmogorov distribution. All are
// standard numerical-recipes-style series/continued-fraction evaluations,
// accurate to ~1e-10 over the ranges SHARP uses.

const (
	specialEps   = 3e-14
	specialFPMin = 1e-300
	specialItMax = 500
)

// GammaP returns the regularized lower incomplete gamma function P(a, x).
func GammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinued(a, x)
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < specialItMax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*specialEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinued(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / specialFPMin
	d := 1 / b
	h := d
	for i := 1; i <= specialItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < specialFPMin {
			d = specialFPMin
		}
		c = b + an/c
		if math.Abs(c) < specialFPMin {
			c = specialFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// BetaInc returns the regularized incomplete beta function I_x(a, b).
func BetaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lgab, _ := math.Lgamma(a + b)
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	bt := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for BetaInc (Lentz's method).
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < specialFPMin {
		d = specialFPMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= specialItMax; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < specialFPMin {
			d = specialFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < specialFPMin {
			c = specialFPMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < specialFPMin {
			d = specialFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < specialFPMin {
			c = specialFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T <= t) for Student's t distribution with df
// degrees of freedom.
func StudentTCDF(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * BetaInc(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// ChiSquareCDF returns P(X <= x) for the chi-squared distribution with k
// degrees of freedom.
func ChiSquareCDF(x, k float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaP(k/2, x/2)
}

// KolmogorovQ returns the Kolmogorov distribution survival function
// Q_KS(lambda) = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2), the
// asymptotic p-value kernel for the two-sample KS test.
func KolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	a2 := -2 * lambda * lambda
	sum := 0.0
	termBF := 2.0
	fac := 2.0
	for j := 1; j <= 200; j++ {
		term := fac * math.Exp(a2*float64(j)*float64(j))
		sum += term
		if math.Abs(term) <= 1e-10*termBF || math.Abs(term) <= 1e-12*sum {
			return clamp01(sum)
		}
		fac = -fac
		termBF = math.Abs(term)
	}
	return 1 // failed to converge: conservative
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
