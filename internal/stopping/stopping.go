// Package stopping implements SHARP's dynamic stopping rules (§IV-c, §V-C).
//
// Choosing the number of benchmark repetitions is the central efficiency /
// reliability trade-off in performance evaluation: too few samples give
// unreliable estimates, too many waste compute. SHARP ships eight dynamic
// rules tailored to specific distribution types (confidence interval,
// Kolmogorov-Smirnov, CV convergence, mean / median / tail-quantile /
// modality stability, effective sample size), the traditional fixed-count
// policy for comparison, a generic self-similarity rule that needs no prior
// knowledge of the distribution, and a meta-heuristic that classifies the
// observed distribution on the fly and delegates to the most appropriate
// rule.
//
// A Rule is a stateful accumulator: feed it observations with Add and poll
// Done after each one. Rules never request more than their MaxSamples cap
// and never stop before their MinSamples floor.
package stopping

import (
	"fmt"
	"math"

	"sharp/internal/stats"
	"sharp/internal/stats/stream"
)

// Rule decides when a measurement experiment has collected enough samples.
type Rule interface {
	// Name identifies the rule for logs and reports.
	Name() string
	// Add feeds the next observation.
	Add(x float64)
	// Done reports whether the experiment should stop now.
	Done() bool
	// N returns the number of observations seen so far.
	N() int
	// Explain describes the current decision state for the report.
	Explain() string
	// Bounds returns the rule's effective guard rails. The rule decides
	// only every CheckEvery samples and at MaxSamples, so the launcher runs
	// the samples between two decision points without speculating.
	Bounds() Bounds
	Evaluated
	Progressor
}

// Bounds are the sample-count guard rails shared by every rule.
type Bounds struct {
	// MinSamples is the floor before any rule may stop (default 10).
	MinSamples int `json:"min_samples,omitempty"`
	// MaxSamples is the hard cap; Done becomes true at the cap regardless
	// of convergence (default 1000, the paper's ground-truth budget).
	MaxSamples int `json:"max_samples,omitempty"`
	// CheckEvery controls how often the (possibly O(n log n)) convergence
	// statistic is recomputed (default 10). A rule decides only at these
	// boundaries and at MaxSamples, so the launcher runs the samples between
	// two decision points concurrently without speculating on the answer.
	CheckEvery int `json:"check_every,omitempty"`
}

// withDefaults fills zero fields.
func (b Bounds) withDefaults() Bounds {
	if b.MinSamples <= 0 {
		b.MinSamples = 10
	}
	if b.MaxSamples <= 0 {
		b.MaxSamples = 1000
	}
	if b.CheckEvery <= 0 {
		b.CheckEvery = 10
	}
	if b.MaxSamples < b.MinSamples {
		b.MaxSamples = b.MinSamples
	}
	return b
}

// Eval is one convergence evaluation, recorded for observability: the
// statistic the rule computed, the threshold it was compared against, and
// the verdict. The launcher turns these into rule.eval trace events.
type Eval struct {
	// N is the sample count at evaluation time.
	N int
	// Statistic is the rule's convergence statistic (rule-specific; NaN when
	// the rule has no numeric statistic for this check).
	Statistic float64
	// Threshold is the value Statistic was compared against.
	Threshold float64
	// Stopped is the verdict: true when the rule decided to stop.
	Stopped bool
}

// Evaluated reports a rule's convergence checks; every Rule records them.
type Evaluated interface {
	// LastEval returns the most recent convergence evaluation; ok is false
	// before the first check.
	LastEval() (Eval, bool)
}

// base carries the sample buffer and guard-rail logic shared by rules.
type base struct {
	bounds   Bounds
	samples  []float64
	done     bool
	reason   string
	lastEval Eval
	hasEval  bool
	// ascending marks rules whose statistic grows toward the threshold
	// (fixed, ESS, modality streak); Progress.Urgency flips its distance
	// computation accordingly.
	ascending bool
	// lastFinite is the most recent evaluation whose statistic was numeric
	// (non-NaN); Progress snapshots read it so a transiently-absent meta
	// statistic never erases the last known convergence state.
	lastFinite Eval
	hasFinite  bool
}

func newBase(b Bounds) base { return base{bounds: b.withDefaults()} }

// N implements Rule.
func (b *base) N() int { return len(b.samples) }

// Done implements Rule.
func (b *base) Done() bool { return b.done }

// Explain implements Rule.
func (b *base) Explain() string {
	if b.reason == "" {
		return fmt.Sprintf("collecting (n=%d)", len(b.samples))
	}
	return b.reason
}

// add appends x and returns true when the rule should evaluate convergence
// on this step; it also enforces the floor and cap.
func (b *base) add(x float64) (check bool) {
	if b.done {
		return false
	}
	b.samples = append(b.samples, x)
	n := len(b.samples)
	if n >= b.bounds.MaxSamples {
		b.done = true
		b.reason = fmt.Sprintf("max samples reached (n=%d)", n)
		return false
	}
	if n < b.bounds.MinSamples {
		return false
	}
	return n%b.bounds.CheckEvery == 0
}

// record notes a completed convergence evaluation for observability. It is
// pure bookkeeping: recording never changes a stop decision.
func (b *base) record(statistic, threshold float64) {
	b.lastEval = Eval{
		N:         len(b.samples),
		Statistic: statistic,
		Threshold: threshold,
		Stopped:   b.done,
	}
	b.hasEval = true
	if !math.IsNaN(statistic) {
		b.lastFinite = b.lastEval
		b.hasFinite = true
	}
}

// LastEval implements Evaluated.
func (b *base) LastEval() (Eval, bool) { return b.lastEval, b.hasEval }

// Samples returns the observations collected so far (shared slice).
func (b *base) Samples() []float64 { return b.samples }

// Bounds implements Rule: the guard rails after defaulting.
func (b *base) Bounds() Bounds { return b.bounds }

// --- 1. Fixed ---

// Fixed stops after exactly N0 runs — the traditional policy the paper
// compares against (SeBS uses 100 runs). It evaluates no convergence
// statistic, so its cap is its only decision point: its Bounds declare
// CheckEvery = MaxSamples = N0, and a parallel launcher may run the whole
// campaign as one span.
type Fixed struct {
	base
	N0 int
}

// NewFixed returns a Fixed rule; n0 <= 0 defaults to 100.
func NewFixed(n0 int) *Fixed {
	if n0 <= 0 {
		n0 = 100
	}
	r := &Fixed{base: newBase(Bounds{MinSamples: 1, MaxSamples: n0, CheckEvery: n0}), N0: n0}
	r.ascending = true
	return r
}

// Name implements Rule.
func (r *Fixed) Name() string { return fmt.Sprintf("fixed-%d", r.N0) }

// Add implements Rule.
func (r *Fixed) Add(x float64) {
	if r.done {
		return
	}
	r.add(x)
	if len(r.samples) >= r.N0 {
		r.done = true
		r.reason = fmt.Sprintf("fixed budget of %d runs exhausted", r.N0)
	}
	r.record(float64(len(r.samples)), float64(r.N0))
}

// --- 2. Confidence interval ---

// CI stops when the right-tailed confidence half-width of the mean, as a
// proportion of the mean, drops below Threshold (§V-C: level 0.95 with
// thresholds T1=0.05 and T2=0.01 in Table IV).
type CI struct {
	base
	Level     float64
	Threshold float64
	current   float64
	mom       stream.Moments
}

// NewCI returns a CI rule with the given confidence level and relative
// threshold.
func NewCI(level, threshold float64, b Bounds) *CI {
	return &CI{base: newBase(b), Level: level, Threshold: threshold, current: math.Inf(1)}
}

// Name implements Rule.
func (r *CI) Name() string { return fmt.Sprintf("ci-%g", r.Threshold) }

// Add implements Rule. The relative CI half-width is evaluated from the
// incrementally maintained moments: O(1) per check instead of re-scanning
// the sample prefix.
func (r *CI) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.mom.Add(x)
	if !check {
		return
	}
	r.current = stats.RelativeCIHalfWidthFromMoments(r.mom.N(), r.mom.Mean(), r.mom.StdErr(), r.Level)
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("relative CI %.4f < %.4f after %d runs", r.current, r.Threshold, len(r.samples))
	}
	r.record(r.current, r.Threshold)
}

// --- 3. Kolmogorov-Smirnov ---

// KS stops when the KS statistic between the first and second half of the
// observations drops below Threshold (§V-C: T=0.1 in Table IV). The idea:
// when additional runs stop providing new information, the two halves look
// like draws from the same distribution.
type KS struct {
	base
	Threshold float64
	current   float64
	halves    stream.Halves
}

// NewKS returns a KS rule with the given threshold.
func NewKS(threshold float64, b Bounds) *KS {
	return &KS{base: newBase(b), Threshold: threshold, current: 1}
}

// Name implements Rule.
func (r *KS) Name() string { return fmt.Sprintf("ks-%g", r.Threshold) }

// Add implements Rule. The half-vs-half partition is maintained
// incrementally (stream.Halves keeps block summaries of both halves across
// the moving midpoint), so each check folds O(n/32) summaries with no
// sorting — the recompute path sorted both halves on every check.
func (r *KS) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.halves.Add(x)
	if !check {
		return
	}
	r.current = r.halves.KS()
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("half-vs-half KS %.4f < %.4f after %d runs", r.current, r.Threshold, len(r.samples))
	}
	r.record(r.current, r.Threshold)
}

// --- 4. Coefficient of variation convergence ---

// CV stops when the coefficient of variation estimate has stabilized: the
// relative change between the CV of the first half and of the full sample is
// below Threshold. It suits unimodal distributions whose spread, not just
// mean, must be pinned down.
type CV struct {
	base
	Threshold float64
	current   float64
	all       stream.Moments
	// half accumulates moments of the first-half prefix lazily: the first
	// half of a growing sample only ever extends at its end, so it can be
	// caught up append-only at check time.
	half stream.Moments
}

// NewCV returns a CV-convergence rule.
func NewCV(threshold float64, b Bounds) *CV {
	return &CV{base: newBase(b), Threshold: threshold, current: math.Inf(1)}
}

// Name implements Rule.
func (r *CV) Name() string { return fmt.Sprintf("cv-%g", r.Threshold) }

// Add implements Rule. Both CVs come from O(1) moment accumulators; the
// half accumulator is caught up to the current midpoint at check time.
func (r *CV) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.all.Add(x)
	if !check {
		return
	}
	for r.half.N() < len(r.samples)/2 {
		r.half.Add(r.samples[r.half.N()])
	}
	cvHalf := r.half.CV()
	cvAll := r.all.CV()
	if math.IsInf(cvHalf, 0) || math.IsInf(cvAll, 0) {
		return
	}
	denom := math.Max(cvAll, 1e-12)
	r.current = math.Abs(cvAll-cvHalf) / denom
	if cvAll == 0 || r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("CV drift %.4f < %.4f after %d runs", r.current, r.Threshold, len(r.samples))
	}
	r.record(r.current, r.Threshold)
}

// --- 5. Mean stability ---

// MeanStability stops when the running mean over the trailing Window
// observations differs from the overall mean by less than Threshold
// (relative). Suited to light-tailed unimodal data.
type MeanStability struct {
	base
	Threshold float64
	Window    int
	current   float64
	sum       stream.KahanSum
}

// NewMeanStability returns a mean-stability rule; window <= 0 defaults to 30.
func NewMeanStability(threshold float64, window int, b Bounds) *MeanStability {
	if window <= 0 {
		window = 30
	}
	return &MeanStability{base: newBase(b), Threshold: threshold, Window: window, current: math.Inf(1)}
}

// Name implements Rule.
func (r *MeanStability) Name() string { return fmt.Sprintf("mean-stability-%g", r.Threshold) }

// Add implements Rule. The overall mean comes from the running Kahan sum
// (bit-identical to the recompute); only the O(Window) trailing mean is
// recomputed per check.
func (r *MeanStability) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.sum.Add(x)
	if !check {
		return
	}
	n := len(r.samples)
	if n < r.Window+r.bounds.MinSamples {
		return
	}
	all := r.sum.Mean()
	tail := stats.Mean(r.samples[n-r.Window:])
	if all == 0 {
		return
	}
	r.current = math.Abs(tail-all) / math.Abs(all)
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("trailing mean drift %.4f < %.4f after %d runs", r.current, r.Threshold, n)
	}
	r.record(r.current, r.Threshold)
}

// --- 6. Median stability ---

// MedianStability is the robust analogue of MeanStability, comparing the
// trailing-window median to the overall median. It is the rule of choice
// for heavy-tailed (Cauchy-like) data where the mean never converges.
type MedianStability struct {
	base
	Threshold float64
	Window    int
	current   float64
	order     stream.OrderStats
}

// NewMedianStability returns a median-stability rule; window <= 0 defaults
// to 30.
func NewMedianStability(threshold float64, window int, b Bounds) *MedianStability {
	if window <= 0 {
		window = 30
	}
	return &MedianStability{base: newBase(b), Threshold: threshold, Window: window, current: math.Inf(1)}
}

// Name implements Rule.
func (r *MedianStability) Name() string { return fmt.Sprintf("median-stability-%g", r.Threshold) }

// Add implements Rule. Median and MAD are answered by the incrementally
// sorted multiset — O(1) and O(n) respectively, with no sorting per check
// (the recompute path sorted the full prefix twice per check).
func (r *MedianStability) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.order.Add(x)
	if !check {
		return
	}
	n := len(r.samples)
	if n < r.Window+r.bounds.MinSamples {
		return
	}
	all := r.order.Median()
	tail := stats.Median(r.samples[n-r.Window:])
	scale := math.Max(math.Abs(all), r.order.MAD())
	if scale == 0 {
		r.done = true
		r.reason = "degenerate (zero spread) sample"
		r.record(0, r.Threshold)
		return
	}
	r.current = math.Abs(tail-all) / scale
	if r.current < r.Threshold {
		r.done = true
		r.reason = fmt.Sprintf("trailing median drift %.4f < %.4f after %d runs", r.current, r.Threshold, n)
	}
	r.record(r.current, r.Threshold)
}

// --- 7. Modality stability ---

// ModalityStability stops when the detected number of KDE modes has remained
// unchanged for StableChecks consecutive checks. It targets multimodal
// performance distributions, where the interesting structure is the mode
// set rather than any single summary.
type ModalityStability struct {
	base
	StableChecks int
	lastModes    int
	streak       int
	mod          stream.Modality
}

// NewModalityStability returns a modality-stability rule; stableChecks <= 0
// defaults to 3.
func NewModalityStability(stableChecks int, b Bounds) *ModalityStability {
	if stableChecks <= 0 {
		stableChecks = 3
	}
	r := &ModalityStability{base: newBase(b), StableChecks: stableChecks}
	r.ascending = true
	return r
}

// Name implements Rule.
func (r *ModalityStability) Name() string {
	return fmt.Sprintf("modality-stability-%d", r.StableChecks)
}

// Add implements Rule. Mode counting runs on the incremental modality
// accumulator: the sorted view is maintained across Adds (no sort-copy per
// check), the Silverman bandwidth takes its IQR from the same multiset and
// its standard deviation from the arrival-order prefix so the count matches
// the recompute path, and the density evaluation reuses the accumulator's
// grid/bin/stencil buffers — zero allocations per check at steady state.
func (r *ModalityStability) Add(x float64) {
	if r.done {
		return
	}
	check := r.add(x)
	r.mod.Add(x)
	if !check {
		return
	}
	bw := stats.SilvermanFromStats(len(r.samples), stats.StdDev(r.samples), r.mod.IQR())
	modes := r.mod.Count(bw)
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
	r.record(float64(r.streak), float64(r.StableChecks))
}

// --- 8. Effective sample size ---

// ESS stops once the autocorrelation-adjusted effective sample size reaches
// Target. For serially dependent measurements (the sinusoidal tuning
// distribution, warm-up drift) raw n overstates the evidence; ESS corrects
// for that.
type ESS struct {
	base
	Target  float64
	current float64
}

// NewESS returns an effective-sample-size rule; target <= 0 defaults to 100.
func NewESS(target float64, b Bounds) *ESS {
	if target <= 0 {
		target = 100
	}
	r := &ESS{base: newBase(b), Target: target}
	r.ascending = true
	return r
}

// Name implements Rule.
func (r *ESS) Name() string { return fmt.Sprintf("ess-%g", r.Target) }

// Add implements Rule. ESS is inherently a whole-series statistic (it walks
// autocorrelation lags over the full prefix), so it is recomputed — but via
// the batched EffectiveSampleSize, which hoists the mean and denominator out
// of the per-lag loop.
func (r *ESS) Add(x float64) {
	if !r.add(x) {
		return
	}
	r.current = stats.EffectiveSampleSize(r.samples)
	if r.current >= r.Target {
		r.done = true
		r.reason = fmt.Sprintf("effective sample size %.1f >= %g after %d runs", r.current, r.Target, len(r.samples))
	}
	r.record(r.current, r.Target)
}

// Drive feeds observations from next into rule until it reports Done, and
// returns the collected samples. It is the harness used by tests, benches
// and the launcher's synchronous path.
func Drive(next func() float64, rule Rule) []float64 {
	for !rule.Done() {
		rule.Add(next())
	}
	if s, ok := rule.(interface{ Samples() []float64 }); ok {
		return s.Samples()
	}
	return nil
}
