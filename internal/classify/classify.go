// Package classify implements SHARP's online distribution characterizer.
//
// The meta-heuristic stopping rule (§IV-c) needs to identify, from the
// samples observed so far, which family the performance distribution most
// resembles so it can apply the most appropriate stopping criterion. The
// classifier was tuned — like the paper's — on the ten synthetic
// distributions in package randx.
package classify

import (
	"math"

	"sharp/internal/stats"
)

// Class is a distribution family label.
type Class string

// Recognized distribution classes, mirroring the paper's tuning set.
// (Log-uniform is reported as Uniform-after-log; sinusoidal and other
// serially dependent data is Autocorrelated.)
const (
	Constant       Class = "constant"
	Normal         Class = "normal"
	LogNormal      Class = "lognormal"
	Uniform        Class = "uniform"
	LogUniform     Class = "loguniform"
	Logistic       Class = "logistic"
	Multimodal     Class = "multimodal"
	HeavyTailed    Class = "heavytailed" // Cauchy-like: no stable mean
	Autocorrelated Class = "autocorrelated"
	Unknown        Class = "unknown"
)

// Profile is the full characterization of a sample: its class plus every
// intermediate statistic, so reports can explain the decision.
type Profile struct {
	Class      Class
	N          int
	Modes      int
	Skewness   float64
	Kurtosis   float64
	JarqueBera stats.TestResult
	// LogJarqueBera is the JB test on log-transformed data (positive data
	// only); small p here with large p above indicates log-normality.
	LogJarqueBera stats.TestResult
	// Lag1 is the lag-1 autocorrelation; ESS the effective sample size.
	Lag1 float64
	ESS  float64
	// TailRatio is (p99-p50)/(p75-p50), large for heavy tails.
	TailRatio float64
	// RelativeMAD is MAD/|median|; ~0 indicates constant data.
	RelativeMAD float64
}

// Options tunes the classifier thresholds. The zero value is replaced by
// Defaults; all experiments in this repo use Defaults, which were fitted on
// the synthetic tuning set (cmd/sharp-experiments tuning).
type Options struct {
	// MinSamples gates classification; below it Classify returns Unknown.
	MinSamples int
	// ConstantRelMAD is the relative-MAD threshold for Constant.
	ConstantRelMAD float64
	// AutocorrLag1 is the |lag-1 autocorrelation| threshold.
	AutocorrLag1 float64
	// NormalAlpha is the JB acceptance level for Normal/LogNormal.
	NormalAlpha float64
	// HeavyTailRatio is the tail-ratio threshold for HeavyTailed.
	HeavyTailRatio float64
	// UniformKurtosis is the max excess kurtosis to call Uniform
	// (uniform has -1.2).
	UniformKurtosis float64
	// LogisticKurtosis is the min excess kurtosis to call Logistic
	// (logistic has +1.2).
	LogisticKurtosis float64
	// ModeProminence and ModeDip are KDE peak-detection parameters.
	ModeProminence float64
	ModeDip        float64
}

// Defaults returns the tuned thresholds.
func Defaults() Options {
	return Options{
		MinSamples:       30,
		ConstantRelMAD:   1e-9,
		AutocorrLag1:     0.35,
		NormalAlpha:      0.05,
		HeavyTailRatio:   12,
		UniformKurtosis:  -0.9,
		LogisticKurtosis: 0.5,
		ModeProminence:   0.15,
		ModeDip:          0.25,
	}
}

// Classify characterizes xs with default options.
func Classify(xs []float64) Profile { return ClassifyOpts(xs, Defaults()) }

// ClassifyOpts characterizes xs. The decision procedure runs cheap,
// high-precision screens first (constant, autocorrelated, heavy-tailed,
// multimodal) and falls back to moment/JB-based family tests:
//
//  1. relative MAD ~ 0                      -> Constant
//  2. |lag-1 autocorrelation| large         -> Autocorrelated
//  3. tail ratio explosive                  -> HeavyTailed (Cauchy-like)
//  4. >1 KDE mode                           -> Multimodal
//  5. JB accepts                            -> Normal
//  6. JB accepts on logs (positive data)    -> LogNormal, unless the logs
//     look uniform (flat density) in which case  -> LogUniform
//  7. excess kurtosis very negative         -> Uniform
//  8. symmetric with heavy-ish tails        -> Logistic
//  9. otherwise                             -> Unknown
func ClassifyOpts(xs []float64, o Options) Profile {
	if o.MinSamples == 0 {
		o = Defaults()
	}
	p := Profile{Class: Unknown, N: len(xs)}
	if len(xs) < o.MinSamples {
		return p
	}
	med := stats.Median(xs)
	mad := stats.MAD(xs)
	if med != 0 {
		p.RelativeMAD = mad / math.Abs(med)
	} else {
		p.RelativeMAD = mad
	}
	p.Skewness = stats.Skewness(xs)
	p.Kurtosis = stats.Kurtosis(xs)
	p.Lag1 = stats.Autocorrelation(xs, 1)
	p.ESS = stats.EffectiveSampleSize(xs)
	p.JarqueBera = stats.JarqueBera(xs)
	p.TailRatio = tailRatio(xs)

	// 1. Constant.
	if p.RelativeMAD <= o.ConstantRelMAD && stats.Max(xs)-stats.Min(xs) <= o.ConstantRelMAD*math.Max(1, math.Abs(med)) {
		p.Class = Constant
		p.Modes = 1
		return p
	}
	// 2. Autocorrelated.
	if math.Abs(p.Lag1) >= o.AutocorrLag1 {
		p.Class = Autocorrelated
		p.Modes = stats.CountModes(xs)
		return p
	}
	// 3. Heavy-tailed.
	if p.TailRatio >= o.HeavyTailRatio {
		p.Class = HeavyTailed
		p.Modes = stats.CountModes(core(xs))
		return p
	}
	// 4. Modality — with log-awareness. Strongly right-skewed positive data
	// (log-normal, log-uniform) produces spurious KDE peaks on the linear
	// scale, so for that shape we count modes on the log scale and try the
	// log families before declaring multimodality.
	p.Modes = stats.CountModesParams(xs, o.ModeProminence, o.ModeDip)
	var logs []float64
	if stats.Min(xs) > 0 && p.Skewness > 0.8 {
		logs = make([]float64, len(xs))
		for i, v := range xs {
			logs[i] = math.Log(v)
		}
		if stats.CountModes(logs) <= 1 {
			p.LogJarqueBera = stats.JarqueBera(logs)
			logKurt := stats.Kurtosis(logs)
			logSkew := stats.Skewness(logs)
			if logKurt <= o.UniformKurtosis && math.Abs(logSkew) < 0.3 {
				p.Class = LogUniform
				p.Modes = 1
				return p
			}
			if p.LogJarqueBera.PValue >= o.NormalAlpha {
				p.Class = LogNormal
				p.Modes = 1
				return p
			}
			// Unimodal on the log scale: not multimodal even if the linear
			// KDE wiggles.
			p.Modes = 1
		}
	}
	if p.Modes > 1 {
		p.Class = Multimodal
		return p
	}
	// 5. Normal.
	if p.JarqueBera.PValue >= o.NormalAlpha {
		// JB cannot separate normal from uniform at small n; use kurtosis.
		if p.Kurtosis <= o.UniformKurtosis {
			p.Class = Uniform
		} else if p.Kurtosis >= o.LogisticKurtosis {
			p.Class = Logistic
		} else {
			p.Class = Normal
		}
		return p
	}
	// 6. Uniform by linear shape (before the log families: a uniform on a
	// positive range also looks flat after log transform).
	if p.Kurtosis <= o.UniformKurtosis && math.Abs(p.Skewness) < 0.3 {
		p.Class = Uniform
		return p
	}
	// 7. Log-family for moderately skewed positive data not caught above.
	if stats.Min(xs) > 0 && logs == nil && p.Skewness > 0 {
		logs = make([]float64, len(xs))
		for i, v := range xs {
			logs[i] = math.Log(v)
		}
		p.LogJarqueBera = stats.JarqueBera(logs)
		logKurt := stats.Kurtosis(logs)
		logSkew := stats.Skewness(logs)
		if logKurt <= o.UniformKurtosis && math.Abs(logSkew) < 0.3 {
			p.Class = LogUniform
			return p
		}
		if p.LogJarqueBera.PValue >= o.NormalAlpha {
			p.Class = LogNormal
			return p
		}
	}
	// 8. Logistic by shape: symmetric, leptokurtic.
	if p.Kurtosis >= o.LogisticKurtosis && math.Abs(p.Skewness) < 0.5 && p.TailRatio < o.HeavyTailRatio {
		p.Class = Logistic
		return p
	}
	return p
}

// tailRatio returns max((p99-p50)/(p75-p50), (p50-p1)/(p50-p25)): how far
// the 1% tails reach relative to the quartiles. Normal ~ 3.4; Cauchy ~ 31.
func tailRatio(xs []float64) float64 {
	s := stats.SortedCopy(xs)
	p1 := stats.QuantileSorted(s, 0.01)
	p25 := stats.QuantileSorted(s, 0.25)
	p50 := stats.QuantileSorted(s, 0.50)
	p75 := stats.QuantileSorted(s, 0.75)
	p99 := stats.QuantileSorted(s, 0.99)
	r := 0.0
	if p75 > p50 {
		r = (p99 - p50) / (p75 - p50)
	}
	if p50 > p25 {
		if l := (p50 - p1) / (p50 - p25); l > r {
			r = l
		}
	}
	return r
}

// core trims the extreme 2% tails from each side, used to look for modes in
// heavy-tailed data without the tails dominating the KDE bandwidth.
func core(xs []float64) []float64 {
	s := stats.SortedCopy(xs)
	k := len(s) / 50
	if 2*k >= len(s) {
		return s
	}
	return s[k : len(s)-k]
}
