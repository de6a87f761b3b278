package stopping

// Differential tests: the incremental rules must reproduce the recompute
// path's stop decisions exactly. Each reference rule below preserves the
// pre-incremental implementation verbatim (full prefix re-sort / re-scan via
// internal/stats at every check); the tests drive reference and incremental
// rules in lockstep over a spread of distribution families and assert the
// Done transition, final N and Explain string all agree.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"sharp/internal/classify"
	"sharp/internal/stats"
)

// --- reference (recompute) implementations ---

type refCI struct {
	base
	Level, Threshold float64
	current          float64
}

func (r *refCI) Name() string { return fmt.Sprintf("ci-%g", r.Threshold) }

func (r *refCI) Add(x float64) {
	if !r.add(x) {
		return
	}
	r.current = stats.RelativeCIHalfWidth(r.samples, r.Level)
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("relative CI %.4f < %.4f after %d runs", r.current, r.Threshold, len(r.samples))
	}
}

type refKS struct {
	base
	Threshold float64
	current   float64
}

func (r *refKS) Name() string { return fmt.Sprintf("ks-%g", r.Threshold) }

func (r *refKS) Add(x float64) {
	if !r.add(x) {
		return
	}
	first, second := stats.SplitHalves(r.samples)
	r.current = stats.KSStatistic(first, second)
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("half-vs-half KS %.4f < %.4f after %d runs", r.current, r.Threshold, len(r.samples))
	}
}

type refCV struct {
	base
	Threshold float64
	current   float64
}

func (r *refCV) Name() string { return fmt.Sprintf("cv-%g", r.Threshold) }

func (r *refCV) Add(x float64) {
	if !r.add(x) {
		return
	}
	half, _ := stats.SplitHalves(r.samples)
	cvHalf := stats.CV(half)
	cvAll := stats.CV(r.samples)
	if math.IsInf(cvHalf, 0) || math.IsInf(cvAll, 0) {
		return
	}
	denom := math.Max(cvAll, 1e-12)
	r.current = math.Abs(cvAll-cvHalf) / denom
	if cvAll == 0 || r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("CV drift %.4f < %.4f after %d runs", r.current, r.Threshold, len(r.samples))
	}
}

type refMeanStability struct {
	base
	Threshold float64
	Window    int
	current   float64
}

func (r *refMeanStability) Name() string { return fmt.Sprintf("mean-stability-%g", r.Threshold) }

func (r *refMeanStability) Add(x float64) {
	if !r.add(x) {
		return
	}
	n := len(r.samples)
	if n < r.Window+r.bounds.MinSamples {
		return
	}
	all := stats.Mean(r.samples)
	tail := stats.Mean(r.samples[n-r.Window:])
	if all == 0 {
		return
	}
	r.current = math.Abs(tail-all) / math.Abs(all)
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("trailing mean drift %.4f < %.4f after %d runs", r.current, r.Threshold, n)
	}
}

type refMedianStability struct {
	base
	Threshold float64
	Window    int
	current   float64
}

func (r *refMedianStability) Name() string { return fmt.Sprintf("median-stability-%g", r.Threshold) }

func (r *refMedianStability) Add(x float64) {
	if !r.add(x) {
		return
	}
	n := len(r.samples)
	if n < r.Window+r.bounds.MinSamples {
		return
	}
	all := stats.Median(r.samples)
	tail := stats.Median(r.samples[n-r.Window:])
	scale := math.Max(math.Abs(all), stats.MAD(r.samples))
	if scale == 0 {
		r.done = true
		r.reason = "degenerate (zero spread) sample"
		return
	}
	r.current = math.Abs(tail-all) / scale
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("trailing median drift %.4f < %.4f after %d runs", r.current, r.Threshold, n)
	}
}

type refTailStability struct {
	base
	Quantile, Threshold float64
	current             float64
}

func (r *refTailStability) Name() string { return fmt.Sprintf("tail-stability-%g", r.Threshold) }

func (r *refTailStability) Add(x float64) {
	if !r.add(x) {
		return
	}
	n := len(r.samples)
	need := int(math.Ceil(10/(1-r.Quantile))) * 2
	if n < need {
		return
	}
	half, _ := stats.SplitHalves(r.samples)
	qHalf := stats.Quantile(half, r.Quantile)
	qAll := stats.Quantile(r.samples, r.Quantile)
	scale := math.Max(math.Abs(qAll), 1e-12)
	r.current = math.Abs(qAll-qHalf) / scale
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("p%d drift %.4f < %.4f after %d runs",
			int(r.Quantile*100), r.current, r.Threshold, n)
	}
}

type refModalityStability struct {
	base
	StableChecks int
	lastModes    int
	streak       int
}

func (r *refModalityStability) Name() string {
	return fmt.Sprintf("modality-stability-%d", r.StableChecks)
}

// Add preserves the pre-incremental recompute path: a full sort-copy plus
// exact (unbinned) KDE grid evaluation at every check. The incremental rule
// runs the linear-binned fast path, so this differential doubles as the
// fast-vs-exact mode-count equivalence check on stopping-rule workloads.
func (r *refModalityStability) Add(x float64) {
	if !r.add(x) {
		return
	}
	modes := stats.CountModesExact(r.samples)
	if modes == r.lastModes && modes > 0 {
		r.streak++
	} else {
		r.streak = 0
		r.lastModes = modes
	}
	if r.streak >= r.StableChecks {
		r.done = true
		r.reason = fmt.Sprintf("mode count stable at %d for %d checks (n=%d)", r.lastModes, r.streak, len(r.samples))
	}
}

type refESS struct {
	base
	Target  float64
	current float64
}

func (r *refESS) Name() string { return fmt.Sprintf("ess-%g", r.Target) }

// refEffectiveSampleSize preserves the per-lag recompute (Autocorrelation
// re-derives the mean and denominator for every lag).
func refEffectiveSampleSize(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return float64(n)
	}
	maxLag := n / 4
	if maxLag > 200 {
		maxLag = 200
	}
	sum := 0.0
	for k := 1; k <= maxLag; k++ {
		r := stats.Autocorrelation(xs, k)
		if math.IsNaN(r) || r <= 0.05 {
			break
		}
		sum += r
	}
	ess := float64(n) / (1 + 2*sum)
	if ess < 1 {
		ess = 1
	}
	if ess > float64(n) {
		ess = float64(n)
	}
	return ess
}

func (r *refESS) Add(x float64) {
	if !r.add(x) {
		return
	}
	r.current = refEffectiveSampleSize(r.samples)
	if r.current >= r.Target {
		r.done = true
		r.reason = fmt.Sprintf("effective sample size %.1f >= %g after %d runs", r.current, r.Target, len(r.samples))
	}
}

type refMeta struct {
	base
	cfg       MetaConfig
	profile   classify.Profile
	lastClass classify.Class
}

func (r *refMeta) Name() string { return "meta" }

func (r *refMeta) Add(x float64) {
	if !r.add(x) {
		return
	}
	n := len(r.samples)
	if n%r.cfg.ClassifyEvery == 0 || r.lastClass == "" {
		r.profile = classify.ClassifyOpts(r.samples, r.cfg.Classifier)
		r.lastClass = r.profile.Class
	}
	stop, why := r.evaluate()
	if stop {
		r.done = true
		r.reason = fmt.Sprintf("[%s] %s (n=%d)", r.lastClass, why, n)
	}
}

func (r *refMeta) evaluate() (bool, string) {
	s := r.samples
	switch r.lastClass {
	case classify.Constant:
		return true, "constant distribution"
	case classify.Normal, classify.Uniform, classify.Logistic:
		w := stats.RelativeCIHalfWidth(s, r.cfg.CILevel)
		if w < r.cfg.CIThreshold {
			return true, fmt.Sprintf("relative CI %.4f < %.4f", w, r.cfg.CIThreshold)
		}
	case classify.LogNormal, classify.LogUniform:
		if stats.Min(s) > 0 {
			logs := make([]float64, len(s))
			for i, v := range s {
				logs[i] = math.Log(v)
			}
			ci := stats.MeanCIRightTailed(logs, r.cfg.CILevel)
			half := ci.High - stats.Mean(logs)
			sd := stats.StdDev(logs)
			if sd > 0 && half/sd < r.cfg.CIThreshold*3 {
				return true, fmt.Sprintf("log-CI half-width %.4f sd", half/sd)
			}
		}
	case classify.Multimodal:
		first, second := stats.SplitHalves(s)
		ks := stats.KSStatistic(first, second)
		if ks < r.cfg.KSThreshold {
			return true, fmt.Sprintf("half-vs-half KS %.4f < %.4f", ks, r.cfg.KSThreshold)
		}
	case classify.HeavyTailed:
		n := len(s)
		window := 30
		if n < window+r.bounds.MinSamples {
			return false, ""
		}
		all := stats.Median(s)
		tail := stats.Median(s[n-window:])
		scale := math.Max(math.Abs(all), stats.MAD(s))
		if scale > 0 && math.Abs(tail-all)/scale < r.cfg.MedianThreshold {
			return true, fmt.Sprintf("median drift %.4f", math.Abs(tail-all)/scale)
		}
	case classify.Autocorrelated:
		ess := refEffectiveSampleSize(s)
		if ess >= r.cfg.ESSTarget {
			return true, fmt.Sprintf("ESS %.1f >= %g", ess, r.cfg.ESSTarget)
		}
	default:
		first, second := stats.SplitHalves(s)
		ks := stats.KSStatistic(first, second)
		if ks < r.cfg.SelfThreshold {
			return true, fmt.Sprintf("self-similarity KS %.4f < %.4f", ks, r.cfg.SelfThreshold)
		}
	}
	return false, ""
}

// --- harness ---

// diffStreams generates observation sequences across the distribution
// families the rules specialize in, seeded for reproducibility.
func diffStreams(seed uint64, n int) map[string][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	out := map[string][]float64{}

	normal := make([]float64, n)
	for i := range normal {
		normal[i] = 200 + 8*rng.NormFloat64()
	}
	out["normal"] = normal

	lognormal := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = math.Exp(5 + 0.5*rng.NormFloat64())
	}
	out["lognormal"] = lognormal

	bimodal := make([]float64, n)
	for i := range bimodal {
		mu := 100.0
		if rng.Float64() < 0.35 {
			mu = 240
		}
		bimodal[i] = mu + 6*rng.NormFloat64()
	}
	out["bimodal"] = bimodal

	heavy := make([]float64, n)
	for i := range heavy {
		heavy[i] = 20 + 4/math.Pow(1-rng.Float64(), 0.8)
	}
	out["heavy"] = heavy

	sin := make([]float64, n)
	for i := range sin {
		sin[i] = 150 + 20*math.Sin(float64(i)/7) + 2*rng.NormFloat64()
	}
	out["autocorrelated"] = sin

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 50 + 10*rng.Float64()
	}
	out["uniform"] = uniform

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3.25
	}
	out["constant"] = constant

	ties := make([]float64, n)
	for i := range ties {
		ties[i] = math.Floor(8 * rng.Float64())
	}
	out["ties"] = ties

	return out
}

func driveLockstep(t *testing.T, label string, inc, ref Rule, xs []float64) {
	t.Helper()
	for i, x := range xs {
		if inc.Done() && ref.Done() {
			break
		}
		inc.Add(x)
		ref.Add(x)
		if inc.Done() != ref.Done() {
			t.Fatalf("%s: Done diverged at sample %d: incremental=%v recompute=%v\n inc: %s\n ref: %s",
				label, i+1, inc.Done(), ref.Done(), inc.Explain(), ref.Explain())
		}
	}
	if inc.N() != ref.N() {
		t.Fatalf("%s: N diverged: incremental=%d recompute=%d", label, inc.N(), ref.N())
	}
	if inc.Explain() != ref.Explain() {
		t.Fatalf("%s: Explain diverged:\n incremental: %s\n recompute:   %s", label, inc.Explain(), ref.Explain())
	}
}

func TestIncrementalRulesMatchRecompute(t *testing.T) {
	var b Bounds // defaults: 10 / 1000 / 10
	for _, seed := range []uint64{1, 2024, 77} {
		for name, xs := range diffStreams(seed, 1200) {
			label := func(rule string) string { return fmt.Sprintf("%s/%s/seed=%d", rule, name, seed) }

			driveLockstep(t, label("ci-0.05"),
				NewCI(0.95, 0.05, b), &refCI{base: newBase(b), Level: 0.95, Threshold: 0.05, current: math.Inf(1)}, xs)
			driveLockstep(t, label("ci-0.01"),
				NewCI(0.95, 0.01, b), &refCI{base: newBase(b), Level: 0.95, Threshold: 0.01, current: math.Inf(1)}, xs)
			driveLockstep(t, label("ks-0.1"),
				NewKS(0.1, b), &refKS{base: newBase(b), Threshold: 0.1, current: 1}, xs)
			driveLockstep(t, label("cv-0.1"),
				NewCV(0.1, b), &refCV{base: newBase(b), Threshold: 0.1, current: math.Inf(1)}, xs)
			driveLockstep(t, label("mean-0.02"),
				NewMeanStability(0.02, 0, b), &refMeanStability{base: newBase(b), Threshold: 0.02, Window: 30, current: math.Inf(1)}, xs)
			driveLockstep(t, label("median-0.02"),
				NewMedianStability(0.02, 0, b), &refMedianStability{base: newBase(b), Threshold: 0.02, Window: 30, current: math.Inf(1)}, xs)
			driveLockstep(t, label("tail-0.02"),
				NewTailStability(0.95, 0.02, b), &refTailStability{base: newBase(b), Quantile: 0.95, Threshold: 0.02, current: math.Inf(1)}, xs)
			driveLockstep(t, label("modality-3"),
				NewModalityStability(3, b), &refModalityStability{base: newBase(b), StableChecks: 3}, xs)
			driveLockstep(t, label("ess-100"),
				NewESS(100, b), &refESS{base: newBase(b), Target: 100}, xs)
			driveLockstep(t, label("meta"),
				NewMeta(MetaConfig{}, b), &refMeta{base: newBase(b), cfg: MetaConfig{}.withDefaults()}, xs)
		}
	}
}

// TestIncrementalRulesMatchRecomputeTightBounds exercises non-default guard
// rails (small cap, frequent checks) where off-by-one divergence in the
// check schedule would surface immediately.
func TestIncrementalRulesMatchRecomputeTightBounds(t *testing.T) {
	b := Bounds{MinSamples: 5, MaxSamples: 60, CheckEvery: 3}
	for name, xs := range diffStreams(9, 80) {
		label := func(rule string) string { return fmt.Sprintf("%s/%s/tight", rule, name) }
		driveLockstep(t, label("ci"),
			NewCI(0.95, 0.05, b), &refCI{base: newBase(b), Level: 0.95, Threshold: 0.05, current: math.Inf(1)}, xs)
		driveLockstep(t, label("ks"),
			NewKS(0.1, b), &refKS{base: newBase(b), Threshold: 0.1, current: 1}, xs)
		driveLockstep(t, label("cv"),
			NewCV(0.1, b), &refCV{base: newBase(b), Threshold: 0.1, current: math.Inf(1)}, xs)
		driveLockstep(t, label("median"),
			NewMedianStability(0.02, 20, b), &refMedianStability{base: newBase(b), Threshold: 0.02, Window: 20, current: math.Inf(1)}, xs)
		driveLockstep(t, label("tail"),
			NewTailStability(0.9, 0.05, b), &refTailStability{base: newBase(b), Quantile: 0.9, Threshold: 0.05, current: math.Inf(1)}, xs)
		driveLockstep(t, label("modality"),
			NewModalityStability(2, b), &refModalityStability{base: newBase(b), StableChecks: 2}, xs)
	}
}

// TestIncrementalKSMatchesRecomputeEveryCheck drives the KS rule and Meta
// (whose multimodal and self-similarity families delegate to KS) to
// MaxSamples 5000 under unreachable thresholds, so every check runs, and
// CheckEvery 7 lands checks at odd n (na != nb) as well as even. Every KS
// statistic must equal the recompute path's bit for bit, not just the stop
// decisions.
func TestIncrementalKSMatchesRecomputeEveryCheck(t *testing.T) {
	b := Bounds{MaxSamples: 5000, CheckEvery: 7}
	cfg := MetaConfig{CIThreshold: -1, KSThreshold: -1, MedianThreshold: -1, ESSTarget: math.Inf(1), SelfThreshold: -1}
	metaKSChecks := 0
	for name, xs := range diffStreams(5, 5000) {
		ks, ksRef := NewKS(-1, b), &refKS{base: newBase(b), Threshold: -1, current: 1}
		meta, metaRef := NewMeta(cfg, b), &refMeta{base: newBase(b), cfg: cfg.withDefaults()}
		for i, x := range xs {
			ks.Add(x)
			ksRef.Add(x)
			if ks.current != ksRef.current {
				t.Fatalf("ks/%s: statistic at n=%d: incremental=%v recompute=%v", name, i+1, ks.current, ksRef.current)
			}
			meta.Add(x)
			metaRef.Add(x)
			if meta.Done() != metaRef.Done() {
				t.Fatalf("meta/%s: Done diverged at n=%d", name, i+1)
			}
			ev, ok := meta.LastEval()
			if !ok || ev.N != i+1 {
				continue
			}
			switch meta.lastClass {
			case classify.Constant, classify.Normal, classify.Uniform, classify.Logistic, classify.LogNormal,
				classify.LogUniform, classify.HeavyTailed, classify.Autocorrelated:
				continue
			}
			metaKSChecks++
			if want := stats.KSStatistic(stats.SplitHalves(xs[:i+1])); ev.Statistic != want {
				t.Fatalf("meta/%s [%s]: KS at n=%d: incremental=%v recompute=%v", name, meta.lastClass, i+1, ev.Statistic, want)
			}
		}
		if ks.N() != 5000 || meta.N() != metaRef.N() || meta.Explain() != metaRef.Explain() {
			t.Fatalf("%s: final state diverged: ks n=%d, meta %q vs %q", name, ks.N(), meta.Explain(), metaRef.Explain())
		}
	}
	if metaKSChecks == 0 {
		t.Fatal("no Meta check went through the KS families")
	}
	t.Logf("%d Meta checks answered by KS", metaKSChecks)
}
