package stopping

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"sharp/internal/classify"
	"sharp/internal/stats"
	"sharp/internal/stats/stream"
)

// SelfSimilarity is the paper's generic, distribution-free rule: it stops
// when the distribution of the observed prefix has become self-similar,
// measured as the average KS statistic over several random half-splits of
// the sample (a bootstrap-stabilized generalization of the half-vs-half KS
// rule). It requires no prior knowledge of the distribution.
type SelfSimilarity struct {
	base
	Threshold float64
	Splits    int
	rng       *rand.Rand
	current   float64
}

// NewSelfSimilarity returns a self-similarity rule; splits <= 0 defaults to
// 5. The seed makes the random splits reproducible.
func NewSelfSimilarity(threshold float64, splits int, seed uint64, b Bounds) *SelfSimilarity {
	if splits <= 0 {
		splits = 5
	}
	return &SelfSimilarity{
		base:      newBase(b),
		Threshold: threshold,
		Splits:    splits,
		rng:       rand.New(rand.NewPCG(seed, seed^0xd1b54a32d192ed03)),
		current:   1,
	}
}

// Name implements Rule.
func (r *SelfSimilarity) Name() string { return fmt.Sprintf("self-similarity-%g", r.Threshold) }

// Add implements Rule.
func (r *SelfSimilarity) Add(x float64) {
	if !r.add(x) {
		return
	}
	sum := 0.0
	for i := 0; i < r.Splits; i++ {
		a, b := stats.RandomSplit(r.rng, r.samples)
		sum += stats.KSStatistic(a, b)
	}
	r.current = sum / float64(r.Splits)
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("mean split KS %.4f < %.4f over %d splits (n=%d)",
			r.current, r.Threshold, r.Splits, len(r.samples))
	}
	r.record(r.current, r.Threshold)
}

// MetaConfig tunes the meta-heuristic. Zero values take the documented
// defaults, which were fitted on the synthetic tuning set.
type MetaConfig struct {
	// ClassifyEvery is how many samples between re-classifications
	// (default 50).
	ClassifyEvery int
	// Classifier options; zero value uses classify.Defaults.
	Classifier classify.Options
	// CILevel / CIThreshold configure the delegated CI rule
	// (defaults 0.95 / 0.05, the paper's T1).
	CILevel, CIThreshold float64
	// KSThreshold configures the delegated KS rule (default 0.1).
	KSThreshold float64
	// MedianThreshold configures the delegated median-stability rule
	// (default 0.02).
	MedianThreshold float64
	// ESSTarget configures the delegated ESS rule (default 100).
	ESSTarget float64
	// SelfThreshold configures the fallback self-similarity rule
	// (default 0.08).
	SelfThreshold float64
	// Seed drives the self-similarity splits.
	Seed uint64
}

func (c MetaConfig) withDefaults() MetaConfig {
	if c.ClassifyEvery <= 0 {
		c.ClassifyEvery = 50
	}
	if c.Classifier.MinSamples == 0 {
		c.Classifier = classify.Defaults()
	}
	if c.CILevel == 0 {
		c.CILevel = 0.95
	}
	if c.CIThreshold == 0 {
		c.CIThreshold = 0.05
	}
	if c.KSThreshold == 0 {
		c.KSThreshold = 0.1
	}
	if c.MedianThreshold == 0 {
		c.MedianThreshold = 0.02
	}
	if c.ESSTarget == 0 {
		c.ESSTarget = 100
	}
	if c.SelfThreshold == 0 {
		c.SelfThreshold = 0.08
	}
	return c
}

// Meta is the paper's novel meta-heuristic: it characterizes the observed
// distribution in real time (package classify) and applies the stopping
// criterion most appropriate for the detected family:
//
//	constant        -> stop immediately
//	normal/uniform/
//	logistic        -> CI rule (means converge fast, CI is tight and cheap)
//	lognormal/
//	loguniform      -> CI rule on log-transformed samples
//	multimodal      -> KS rule (captures mode structure, not just the mean)
//	heavy-tailed    -> median stability (the mean may not exist)
//	autocorrelated  -> effective-sample-size rule
//	unknown         -> generic self-similarity rule
type Meta struct {
	base
	cfg     MetaConfig
	profile classify.Profile
	// decision state recomputed at each classification point
	lastClass classify.Class
	// Incremental accumulators backing the per-family criteria. The
	// classifier itself still runs on the raw prefix every ClassifyEvery
	// samples, but the (much more frequent) CheckEvery evaluations are
	// answered incrementally.
	mom    stream.Moments    // CI family
	logMom stream.Moments    // log-CI family (fed log(x) for x > 0)
	halves stream.Halves     // KS / self-similarity families
	order  stream.OrderStats // heavy-tailed family (median, MAD, min)
}

// NewMeta returns the meta-heuristic rule.
func NewMeta(cfg MetaConfig, b Bounds) *Meta {
	return &Meta{base: newBase(b), cfg: cfg.withDefaults()}
}

// Name implements Rule.
func (r *Meta) Name() string { return "meta" }

// Add implements Rule.
func (r *Meta) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.mom.Add(x)
	if x > 0 {
		r.logMom.Add(math.Log(x))
	}
	r.halves.Add(x)
	r.order.Add(x)
	if !check {
		return
	}
	n := len(r.samples)
	if n%r.cfg.ClassifyEvery == 0 || r.lastClass == "" {
		r.profile = classify.ClassifyOpts(r.samples, r.cfg.Classifier)
		r.lastClass = r.profile.Class
		// The autocorrelated family delegates to ESS, the one criterion whose
		// statistic climbs toward its threshold; every other family shrinks.
		r.ascending = r.lastClass == classify.Autocorrelated
	}
	stop, why, stat, threshold := r.evaluate()
	if stop {
		r.done = true
		r.reason = fmt.Sprintf("[%s] %s (n=%d)", r.lastClass, why, n)
	}
	r.record(stat, threshold)
}

// evaluate applies the family-appropriate criterion to the current samples,
// answering each from the incremental accumulators maintained by Add. It
// also reports the convergence statistic and threshold it compared (NaN
// statistic when the family criterion produced none this check), which Add
// records for observability.
func (r *Meta) evaluate() (stop bool, why string, stat, threshold float64) {
	s := r.samples
	stat = math.NaN()
	switch r.lastClass {
	case classify.Constant:
		return true, "constant distribution", 0, 0
	case classify.Normal, classify.Uniform, classify.Logistic:
		w := stats.RelativeCIHalfWidthFromMoments(r.mom.N(), r.mom.Mean(), r.mom.StdErr(), r.cfg.CILevel)
		stat, threshold = w, r.cfg.CIThreshold
		if w < r.cfg.CIThreshold {
			return true, fmt.Sprintf("relative CI %.4f < %.4f", w, r.cfg.CIThreshold), stat, threshold
		}
	case classify.LogNormal, classify.LogUniform:
		// logMom holds log(x) for every positive observation, so it covers
		// the full prefix exactly when the minimum is positive.
		if r.order.Min() > 0 {
			// The log-mean is O(log units); use an absolute half-width bound
			// scaled by the log-spread instead of the mean-relative form.
			m := r.logMom.Mean()
			ci := stats.MeanCIRightTailedFromMoments(r.logMom.N(), m, r.logMom.StdErr(), r.cfg.CILevel)
			half := ci.High - m
			sd := r.logMom.StdDev()
			if sd > 0 {
				stat, threshold = half/sd, r.cfg.CIThreshold*3
			}
			if sd > 0 && half/sd < r.cfg.CIThreshold*3 {
				return true, fmt.Sprintf("log-CI half-width %.4f sd", half/sd), stat, threshold
			}
		}
	case classify.Multimodal:
		ks := r.halves.KS()
		stat, threshold = ks, r.cfg.KSThreshold
		if ks < r.cfg.KSThreshold {
			return true, fmt.Sprintf("half-vs-half KS %.4f < %.4f", ks, r.cfg.KSThreshold), stat, threshold
		}
	case classify.HeavyTailed:
		n := len(s)
		window := 30
		if n < window+r.bounds.MinSamples {
			return false, "", stat, r.cfg.MedianThreshold
		}
		all := r.order.Median()
		tail := stats.Median(s[n-window:])
		scale := math.Max(math.Abs(all), r.order.MAD())
		if scale > 0 {
			stat, threshold = math.Abs(tail-all)/scale, r.cfg.MedianThreshold
		}
		if scale > 0 && math.Abs(tail-all)/scale < r.cfg.MedianThreshold {
			return true, fmt.Sprintf("median drift %.4f", math.Abs(tail-all)/scale), stat, threshold
		}
	case classify.Autocorrelated:
		ess := stats.EffectiveSampleSize(s)
		stat, threshold = ess, r.cfg.ESSTarget
		if ess >= r.cfg.ESSTarget {
			return true, fmt.Sprintf("ESS %.1f >= %g", ess, r.cfg.ESSTarget), stat, threshold
		}
	default: // Unknown or not yet classified
		ks := r.halves.KS()
		stat, threshold = ks, r.cfg.SelfThreshold
		if ks < r.cfg.SelfThreshold {
			return true, fmt.Sprintf("self-similarity KS %.4f < %.4f", ks, r.cfg.SelfThreshold), stat, threshold
		}
	}
	return false, "", stat, threshold
}

// Spec is a rule as NewNamed builds it: the configuration name, the
// threshold (interpreted per rule; 0 = the rule's default) and the guard
// rails. It is the rule half of a recorded campaign (core.Spec) and
// JSON-encodes as such.
type Spec struct {
	Kind      string  `json:"kind"`
	Threshold float64 `json:"threshold,omitempty"`
	Bounds
}

// NewNamed builds a rule from its configuration name, used by the CLI and
// config files. Recognized names: fixed, ci, ks, cv, mean, median, tail,
// modality, ess, self, meta. The threshold parameter is interpreted per rule
// (ignored where not applicable). It is Spec{name, threshold, b}.New().
func NewNamed(name string, threshold float64, b Bounds) (Rule, error) {
	return Spec{Kind: name, Threshold: threshold, Bounds: b}.New()
}

// New builds a fresh rule (rules are stateful accumulators: every campaign
// needs its own).
func (s Spec) New() (Rule, error) {
	threshold, b := s.Threshold, s.Bounds
	orDefault := func(def float64) float64 {
		if threshold <= 0 {
			return def
		}
		return threshold
	}
	switch s.Kind {
	case "fixed":
		n := int(orDefault(100))
		if b.MaxSamples > 0 && n > b.MaxSamples {
			n = b.MaxSamples
		}
		return NewFixed(n), nil
	case "ci":
		return NewCI(0.95, orDefault(0.05), b), nil
	case "ks":
		return NewKS(orDefault(0.1), b), nil
	case "cv":
		return NewCV(orDefault(0.1), b), nil
	case "mean":
		return NewMeanStability(orDefault(0.02), 0, b), nil
	case "median":
		return NewMedianStability(orDefault(0.02), 0, b), nil
	case "tail":
		return NewTailStability(0.95, threshold, b), nil
	case "modality":
		return NewModalityStability(int(threshold), b), nil
	case "ess":
		return NewESS(threshold, b), nil
	case "self":
		return NewSelfSimilarity(orDefault(0.08), 0, 1, b), nil
	case "meta":
		return NewMeta(MetaConfig{}, b), nil
	default:
		return nil, fmt.Errorf("stopping: unknown rule %q", s.Kind)
	}
}

// ParseName is the inverse of NewNamed over display names: it maps a Name()
// such as "ks-0.1", "self-similarity-1e-05" or "meta" back to the kind and
// threshold that build the rule. Kinds match by their default rule's display
// prefix, so compound names and exponents ("1e-05") parse as a whole.
func ParseName(name string) (Spec, error) {
	for _, kind := range Names() {
		def, _ := NewNamed(kind, 0, Bounds{})
		prefix := def.Name()
		if i := strings.LastIndexByte(prefix, '-'); i > 0 {
			prefix = prefix[:i]
		}
		if name == prefix {
			return Spec{Kind: kind}, nil
		}
		if rest, ok := strings.CutPrefix(name, prefix+"-"); ok {
			t, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("stopping: bad threshold in rule name %q: %w", name, err)
			}
			return Spec{Kind: kind, Threshold: t}, nil
		}
	}
	return Spec{}, fmt.Errorf("stopping: unknown rule name %q", name)
}

// Names lists the configuration names accepted by NewNamed.
func Names() []string {
	return []string{"fixed", "ci", "ks", "cv", "mean", "median", "tail", "modality", "ess", "self", "meta"}
}
