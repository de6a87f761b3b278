// Package core is SHARP's framework layer: the Launcher that orchestrates
// experiment repetitions over an execution backend under a dynamic stopping
// rule, the Result type carrying the full measurement distribution plus its
// tidy-data log, the comparison API built on the similarity metrics, and the
// metadata round-trip that recreates an experiment from its own record
// (§IV-a, §IV-d).
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sharp/internal/backend"
	"sharp/internal/classify"
	"sharp/internal/config"
	"sharp/internal/machine"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/similarity"
	"sharp/internal/stats"
	"sharp/internal/stopping"
	"sharp/internal/sysinfo"
)

// Experiment configures one SHARP measurement campaign.
type Experiment struct {
	// Name identifies the experiment in logs and metadata.
	Name string
	// Workload is the function/benchmark to measure.
	Workload string
	// Args are workload arguments.
	Args []string
	// Backend executes the workload. Required.
	Backend backend.Backend
	// Rule decides when to stop. Nil defaults to the meta-heuristic with
	// a 1000-run cap.
	Rule stopping.Rule
	// Metric drives the stopping rule (default exec_time). All metrics
	// returned by the backend are logged regardless.
	Metric string
	// Concurrency is parallel instances per run (default 1). The rule
	// observes the mean across instances of each run.
	Concurrency int
	// Timeout bounds each instance.
	Timeout time.Duration
	// WarmupRuns execute before measurement and are not recorded
	// (cold-start control, §IV-a).
	WarmupRuns int
	// Cold requests cold-start invocations throughout (FaaS).
	Cold bool
	// Day is the measurement-day coordinate for simulated backends.
	Day int
	// Seed is the experiment seed recorded for reproduction.
	Seed uint64
	// SUT describes the system under test; the zero value is filled from
	// the local host (or the simulated machine for Sim backends).
	SUT sysinfo.SUT
	// Parallel is the number of worker goroutines executing runs
	// concurrently (values <= 1 run sequentially). The workers run ahead of
	// the merge by at most a small fixed window and never past the rule's
	// next decision point (a CheckEvery boundary or the cap), and outcomes
	// are merged in run order as they land, so with a run-addressable
	// backend (Sim, Chaos, InProcess) the samples, rows and stop decision
	// are bit-identical to sequential execution. See Stepper.
	Parallel int
	// Retry is the per-run retry policy; the zero value (MaxAttempts <= 1)
	// disables retrying. When enabled the backend is wrapped with
	// resilience.Wrap, and every failed attempt is still logged as a
	// tidy-data row.
	Retry resilience.Policy
	// FailureBudget bounds tolerated run failures before the campaign
	// aborts; the zero value applies the package defaults (10 consecutive
	// failed runs, or >50% of runs failed after at least 10 runs).
	FailureBudget FailureBudget
}

// FailureBudget is the launcher's graceful-degradation policy: instead of
// aborting on the first failure (and losing the campaign) or looping
// forever against a dead backend, the campaign aborts only once the budget
// is exhausted. Every failed run is recorded as data first.
type FailureBudget struct {
	// MaxConsecutive aborts after this many consecutive failed runs
	// (default 10; negative disables the check).
	MaxConsecutive int
	// MaxFraction aborts when more than this fraction of runs failed,
	// checked once MinRuns runs completed (default 0.5; negative disables).
	MaxFraction float64
	// MinRuns is the minimum number of runs before MaxFraction applies
	// (default 10).
	MinRuns int
}

func (fb FailureBudget) withDefaults() FailureBudget {
	if fb.MaxConsecutive == 0 {
		fb.MaxConsecutive = 10
	}
	if fb.MaxFraction == 0 {
		fb.MaxFraction = 0.5
	}
	if fb.MinRuns == 0 {
		fb.MinRuns = 10
	}
	return fb
}

// exceeded reports whether the budget is exhausted, with an explanation.
func (fb FailureBudget) exceeded(consecutive, failed, total int) (bool, string) {
	if fb.MaxConsecutive > 0 && consecutive >= fb.MaxConsecutive {
		return true, fmt.Sprintf("%d consecutive failed runs (budget %d)", consecutive, fb.MaxConsecutive)
	}
	if fb.MaxFraction > 0 && total >= fb.MinRuns &&
		float64(failed) > fb.MaxFraction*float64(total) {
		return true, fmt.Sprintf("%d/%d runs failed (budget %.0f%%)", failed, total, fb.MaxFraction*100)
	}
	return false, ""
}

// ErrFailureBudget marks a campaign aborted by its failure budget. The
// returned *Result still carries every recorded observation, including the
// failure rows.
var ErrFailureBudget = errors.New("core: failure budget exceeded")

// withDefaults validates and fills defaults.
func (e Experiment) withDefaults() (Experiment, error) {
	if e.Backend == nil {
		return e, errors.New("core: experiment needs a backend")
	}
	if e.Workload == "" {
		return e, errors.New("core: experiment needs a workload")
	}
	if e.Name == "" {
		e.Name = e.Workload
	}
	if e.Rule == nil {
		e.Rule = stopping.NewMeta(stopping.MetaConfig{Seed: e.Seed}, stopping.Bounds{})
	}
	if e.Metric == "" {
		e.Metric = backend.MetricExecTime
	}
	if e.Concurrency < 1 {
		e.Concurrency = 1
	}
	e.FailureBudget = e.FailureBudget.withDefaults()
	if e.Retry.Enabled() {
		if e.Retry.Seed == 0 {
			e.Retry.Seed = e.Seed
		}
		e.Backend = resilience.Wrap(e.Backend, e.Retry)
	}
	if e.SUT == (sysinfo.SUT{}) {
		if sim, ok := backend.Unwrap(e.Backend).(*backend.Sim); ok {
			e.SUT = sim.Machine.SUT()
		} else {
			e.SUT = sysinfo.Collect()
		}
	}
	return e, nil
}

// Result is the outcome of a measurement campaign: the distribution, not a
// point summary.
type Result struct {
	// Experiment echoes the configuration (post-defaults).
	Experiment Experiment
	// Samples holds the primary-metric value of each measured run (mean
	// across concurrent instances).
	Samples []float64
	// Rows is the complete tidy-data log (one row per instance per metric).
	Rows []record.Row
	// Runs is the number of measured repetitions.
	Runs int
	// StopReason is the stopping rule's explanation.
	StopReason string
	// RuleName names the stopping rule used.
	RuleName string
	// Errors counts failed invocation attempts (excluded from Samples but
	// recorded as tidy-data rows — failures are data, not gaps).
	Errors int
	// FailedRuns counts runs in which no instance produced the primary
	// metric.
	FailedRuns int
	// Started/Finished bound the campaign.
	Started, Finished time.Time
}

// RowSink receives tidy-data rows as the campaign produces them. Wiring a
// durable record.Writer here turns the in-memory log into a crash-safe
// on-disk one: rows reach the file while the campaign runs instead of only
// at SaveCSV time (§IV-d: record distributions completely). The unit of
// durability is the run: each run's rows, error rows included, are handed
// over once the run is merged and before it counts as a sample, in one
// WriteAll([]record.Row) error call when the sink has that method (as
// record.Writer does) and row by row through Write otherwise. An interrupt
// or crash therefore loses at most the run in progress plus the writer's
// unflushed tail, and resume drops a torn trailing run.
type RowSink interface {
	Write(r record.Row) error
}

// Launcher orchestrates experiments (the centerpiece component of Fig. 2).
type Launcher struct {
	// Clock is the time source (tests may override).
	Clock func() time.Time
	// Tracer receives campaign observability events (nil disables tracing).
	// Run installs it on every TraceSink layer of the experiment's backend
	// decorator chain (Chaos, resilience.Wrap, FaaS client), so one sink
	// collects the whole execution stack's event stream.
	Tracer obs.Tracer
	// Log streams every recorded row to a sink as it is produced (nil
	// disables streaming; rows always accumulate in Result.Rows regardless).
	// A sink write error aborts the campaign: losing the record silently is
	// the one failure mode the Logger must not have.
	Log RowSink
	// OnProgress, when set, receives the stopping rule's convergence snapshot
	// after every merged observation. It is invoked from the goroutine
	// driving the campaign's Stepper, which merges runs in order, so the
	// callback never races with the rule. Budget-aware schedulers use it to
	// track per-campaign urgency without polling the rule concurrently.
	OnProgress func(stopping.Progress)
}

// ErrInterrupted marks a campaign stopped by context cancellation (SIGINT,
// SIGTERM, deadline) at a run boundary. The returned *Result carries every
// completed run's rows and samples; together with a flushed CSV log and a
// checkpointed metadata file it is the state Resume continues from.
var ErrInterrupted = errors.New("core: campaign interrupted")

// NewLauncher returns a Launcher.
func NewLauncher() *Launcher { return &Launcher{Clock: time.Now} }

// trace emits one campaign event (no-op without a tracer).
func (l *Launcher) trace(typ string, fields map[string]any) {
	obs.Emit(l.Tracer, typ, fields)
}

// traceRuleEval emits the rule.eval event for the convergence check that the
// rule just performed, if it performed one on this observation. Non-finite
// statistics are omitted from the payload (JSON cannot carry NaN/Inf).
func (l *Launcher) traceRuleEval(rule stopping.Rule) {
	if l.Tracer == nil {
		return
	}
	last, has := rule.LastEval()
	if !has || last.N != rule.N() {
		return // no convergence check happened on this Add
	}
	verdict := "continue"
	if last.Stopped {
		verdict = "stop"
	}
	fields := map[string]any{
		"rule":    rule.Name(),
		"n":       last.N,
		"verdict": verdict,
	}
	if finite(last.Statistic) {
		fields["statistic"] = last.Statistic
	}
	if finite(last.Threshold) {
		fields["threshold"] = last.Threshold
	}
	l.trace(obs.EventRuleEval, fields)
}

// finite reports whether x is representable in JSON.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// rowBatcher is a RowSink that takes a whole run's rows in one call, as
// record.Writer does.
type rowBatcher interface {
	WriteAll(rows []record.Row) error
}

// sinkRows hands one run's rows, already in the in-memory log, to the
// streaming sink: in one WriteAll call when the sink has it, row by row
// otherwise. A sink failure is returned (and aborts the campaign): the
// Logger must never lose data silently.
func (l *Launcher) sinkRows(rows []record.Row) error {
	if l.Log == nil || len(rows) == 0 {
		return nil
	}
	var err error
	if b, ok := l.Log.(rowBatcher); ok {
		err = b.WriteAll(rows)
	} else {
		for _, r := range rows {
			if err = l.Log.Write(r); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("core: row sink: %w", err)
	}
	return nil
}

// Run executes the experiment until its stopping rule is satisfied and
// returns the full Result.
//
// Failure handling (§IV-d: the log must account for every observation):
// per-instance failures become tidy-data rows with status "error" rather
// than vanishing; a whole-run failure is recorded the same way and the
// campaign continues, degrading gracefully until the FailureBudget is
// exhausted — in which case Run returns the partial Result together with an
// error wrapping ErrFailureBudget. Configuration errors (unknown workload,
// cancelled context) still abort immediately.
func (l *Launcher) Run(ctx context.Context, e Experiment) (*Result, error) {
	var s Stepper
	if err := s.start(ctx, l, e); err != nil {
		return nil, err
	}
	return s.complete(ctx)
}

// attempts normalizes an invocation's attempt count (0 = undecorated single
// attempt).
func attempts(inv backend.Invocation) int {
	if inv.Attempts < 1 {
		return 1
	}
	return inv.Attempts
}

// errorRow converts a failed invocation (or whole-run failure, Instance 0)
// into its tidy-data record: metric "error", value 1, with the message and
// attempt count preserved.
func (l *Launcher) errorRow(e Experiment, now time.Time, run int, inv backend.Invocation, err error) record.Row {
	msg := strings.ReplaceAll(err.Error(), "\n", "; ")
	return record.Row{
		Timestamp:  now,
		Experiment: e.Name,
		Workload:   e.Workload,
		Backend:    e.Backend.Name(),
		Machine:    inv.Worker,
		Day:        e.Day,
		Run:        run,
		Instance:   inv.Instance,
		Metric:     record.MetricError,
		Value:      1,
		Unit:       "",
		Status:     record.StatusError,
		Attempt:    attempts(inv),
		Error:      msg,
	}
}

// request assembles the backend request for a run index.
func (l *Launcher) request(e Experiment, run int) backend.Request {
	return backend.Request{
		Workload:    e.Workload,
		Args:        e.Args,
		Concurrency: e.Concurrency,
		Timeout:     e.Timeout,
		Cold:        e.Cold,
		Run:         run,
		Day:         e.Day,
	}
}

// unitFor maps metric names to units for the tidy log.
func unitFor(metric string) string {
	switch metric {
	case backend.MetricExecTime, "detection_time", "tracking_time":
		return "seconds"
	case "cold_start":
		return "bool"
	default:
		return ""
	}
}

// Summary returns the descriptive statistics of the primary metric.
func (r *Result) Summary() (stats.Summary, error) { return stats.Describe(r.Samples) }

// Profile characterizes the measured distribution.
func (r *Result) Profile() classify.Profile { return classify.Classify(r.Samples) }

// Modes returns the detected mode count.
func (r *Result) Modes() int { return stats.CountModes(r.Samples) }

// MetricSamples extracts per-run means of any logged metric (e.g. the
// leukocyte phase metrics of Fig. 7).
func (r *Result) MetricSamples(metric string) []float64 {
	perRun := map[int][]float64{}
	for _, row := range r.Rows {
		if row.Metric == metric {
			perRun[row.Run] = append(perRun[row.Run], row.Value)
		}
	}
	out := make([]float64, 0, len(perRun))
	for run := 1; run <= r.Runs; run++ {
		if vs, ok := perRun[run]; ok {
			out = append(out, stats.Mean(vs))
		}
	}
	return out
}

// SaveCSV writes the tidy-data log to path atomically (temp file + rename):
// a crash mid-save can never leave a torn log where a previous good one was.
func (r *Result) SaveCSV(path string) error {
	return record.WriteRowsAtomic(path, r.Rows)
}

// Metadata builds the experiment's metadata record, sufficient for
// RecreateExperiment to rebuild and re-run the campaign. Its created stamp
// is the campaign's start on the launcher clock, so a pinned clock
// (SHARP_CLOCK) pins the metadata bytes too.
func (r *Result) Metadata() *record.Metadata {
	e := r.Experiment
	m := record.NewMetadata(e.Name, e.SUT)
	if !r.Started.IsZero() {
		m.Created = r.Started.UTC()
	}
	m.Set("workload", e.Workload)
	m.Set("backend", e.Backend.Name())
	if sim, ok := backend.Unwrap(e.Backend).(*backend.Sim); ok {
		m.Set("machine", sim.Machine.Name)
		m.Set("backend_seed", sim.Seed)
	}
	m.Set("rule", r.RuleName)
	// Guard rails other than those the rule name alone rebuilds with are
	// recorded, so a recreated rule stops where the original could.
	b := e.Rule.Bounds()
	if def, err := ruleFromName(r.RuleName, e.Seed, stopping.Bounds{}); err != nil || def == nil || def.Bounds() != b {
		m.Set("min_samples", b.MinSamples)
		m.Set("max_samples", b.MaxSamples)
		m.Set("check_every", b.CheckEvery)
	}
	m.Set("metric", e.Metric)
	m.Set("concurrency", e.Concurrency)
	m.Set("warmup_runs", e.WarmupRuns)
	m.Set("cold", e.Cold)
	m.Set("day", e.Day)
	m.Set("seed", e.Seed)
	m.Set("runs", r.Runs)
	m.Set("stop_reason", r.StopReason)
	if e.Parallel > 1 {
		m.Set("parallel", e.Parallel)
	}
	if e.Timeout > 0 {
		m.Set("timeout", e.Timeout.String())
	}
	if e.Retry.Enabled() {
		m.Set("retries", e.Retry.MaxAttempts)
		if e.Retry.BaseDelay != 0 {
			m.Set("retry_base_delay", e.Retry.BaseDelay.String())
		}
		if e.Retry.Seed != e.Seed {
			m.Set("retry_seed", e.Retry.Seed)
		}
	}
	if fb := e.FailureBudget; fb != (FailureBudget{}) && fb != (FailureBudget{}).withDefaults() {
		m.Set("failure_budget", fb.MaxFraction)
		m.Set("max_consecutive_failures", fb.MaxConsecutive)
		m.Set("failure_min_runs", fb.MinRuns)
	}
	if r.Errors > 0 {
		m.Set("errors", r.Errors)
	}
	if r.FailedRuns > 0 {
		m.Set("failed_runs", r.FailedRuns)
	}
	if len(e.Args) > 0 {
		// JSON array: lossless for args containing spaces or brackets (the
		// previous %v rendering could not be parsed back).
		if b, err := json.Marshal(e.Args); err == nil {
			m.Set("args", string(b))
		}
	}
	return m
}

// SaveMetadata writes the metadata Markdown file to path.
func (r *Result) SaveMetadata(path string) error { return r.Metadata().WriteFile(path) }

// RecreateExperiment rebuilds an Experiment from a metadata record written
// by SaveMetadata. Backends are reconstructed for the reproducible kinds:
// "sim" (with its machine) always; other backends must be supplied by the
// caller via the backends map (keyed by backend name).
func RecreateExperiment(m *record.Metadata, backends map[string]backend.Backend) (Experiment, error) {
	e := Experiment{
		Name:     m.Experiment,
		Workload: m.Get("workload"),
		Metric:   m.Get("metric"),
	}
	if e.Workload == "" {
		return e, errors.New("core: metadata has no workload")
	}
	atoi := func(key string) int {
		n, _ := strconv.Atoi(m.Get(key))
		return n
	}
	e.Concurrency = atoi("concurrency")
	e.WarmupRuns = atoi("warmup_runs")
	e.Day = atoi("day")
	e.Cold = m.Get("cold") == "true"
	e.Parallel = atoi("parallel")
	seed, _ := strconv.ParseUint(m.Get("seed"), 10, 64)
	e.Seed = seed
	if s := m.Get("args"); s != "" {
		var args []string
		if err := json.Unmarshal([]byte(s), &args); err == nil {
			e.Args = args
		} else if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
			// Legacy records rendered args with %v ("[a b c]"): lossy for
			// values containing spaces, but recoverable for simple ones.
			if inner := strings.TrimSpace(s[1 : len(s)-1]); inner != "" {
				e.Args = strings.Fields(inner)
			}
		}
	}
	if t := m.Get("timeout"); t != "" {
		if d, err := time.ParseDuration(t); err == nil {
			e.Timeout = d
		}
	}
	if r := atoi("retries"); r > 1 {
		e.Retry = resilience.Policy{MaxAttempts: r, Seed: seed}
		if s, err := strconv.ParseUint(m.Get("retry_seed"), 10, 64); err == nil {
			e.Retry.Seed = s
		}
		if d, err := time.ParseDuration(m.Get("retry_base_delay")); err == nil {
			e.Retry.BaseDelay = d
		}
	}
	if m.Get("failure_budget") != "" || m.Get("max_consecutive_failures") != "" {
		frac, _ := strconv.ParseFloat(m.Get("failure_budget"), 64)
		e.FailureBudget = FailureBudget{
			MaxFraction:    frac,
			MaxConsecutive: atoi("max_consecutive_failures"),
			MinRuns:        atoi("failure_min_runs"),
		}
	}

	switch name := m.Get("backend"); name {
	case "sim":
		mach, err := machine.ByName(m.Get("machine"))
		if err != nil {
			return e, err
		}
		bseed := seed
		if s, err := strconv.ParseUint(m.Get("backend_seed"), 10, 64); err == nil {
			bseed = s
		}
		e.Backend = backend.NewSim(mach, bseed)
	default:
		b, ok := backends[name]
		if !ok {
			return e, fmt.Errorf("core: backend %q cannot be recreated automatically; supply it", name)
		}
		e.Backend = b
	}
	// Rebuild the stopping rule from its recorded name ("ks-0.1" etc.) and
	// guard rails; absent ones take the rule's defaults.
	rule, err := ruleFromName(m.Get("rule"), seed, stopping.Bounds{
		MinSamples: atoi("min_samples"),
		MaxSamples: atoi("max_samples"),
		CheckEvery: atoi("check_every"),
	})
	if err != nil {
		return e, err
	}
	e.Rule = rule
	e.SUT = m.SUT
	return e, nil
}

// ruleKinds are the known rule-name prefixes, longest first so compound
// names ("median-stability") are never mistaken for shorter kinds.
var ruleKinds = []string{
	"modality-stability", "median-stability", "mean-stability",
	"tail-stability", "self-similarity",
	"fixed", "meta", "ess", "ci", "ks", "cv",
}

// ruleFromName parses rule names of the form "kind-threshold" produced by
// the stopping rules' Name methods and builds the rule with bounds b (a
// fixed rule's bounds follow from its count). The kind is matched against
// the known prefixes rather than split at the last '-': thresholds rendered
// in scientific notation ("ks-1e-05") contain a '-' inside the exponent,
// which the old last-dash split parsed as kind "ks-1e" with threshold 5.
func ruleFromName(name string, seed uint64, b stopping.Bounds) (stopping.Rule, error) {
	if name == "" {
		return nil, nil // default rule
	}
	kind := name
	threshold := 0.0
	for _, k := range ruleKinds {
		if name == k {
			kind = k
			break
		}
		if strings.HasPrefix(name, k+"-") {
			t, err := strconv.ParseFloat(name[len(k)+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad threshold in rule name %q: %w", name, err)
			}
			kind, threshold = k, t
			break
		}
	}
	switch kind {
	case "fixed":
		return stopping.NewFixed(int(threshold)), nil
	case "ci":
		return stopping.NewCI(0.95, threshold, b), nil
	case "ks":
		return stopping.NewKS(threshold, b), nil
	case "cv":
		return stopping.NewCV(threshold, b), nil
	case "mean-stability":
		return stopping.NewMeanStability(threshold, 0, b), nil
	case "median-stability":
		return stopping.NewMedianStability(threshold, 0, b), nil
	case "tail-stability":
		return stopping.NewTailStability(0.95, threshold, b), nil
	case "modality-stability":
		return stopping.NewModalityStability(int(threshold), b), nil
	case "ess":
		return stopping.NewESS(threshold, b), nil
	case "self-similarity":
		return stopping.NewSelfSimilarity(threshold, 0, seed, b), nil
	case "meta":
		return stopping.NewMeta(stopping.MetaConfig{Seed: seed}, b), nil
	default:
		return nil, fmt.Errorf("core: unknown rule name %q", name)
	}
}

// Comparison is the distribution-level comparison of two results (§V-B):
// both the point-summary metric (NAMD) and the distribution-based metrics,
// so reports can show what each captures.
type Comparison struct {
	NameA, NameB string
	NA, NB       int
	MeanA, MeanB float64
	// Speedup is MeanA / MeanB (how much faster B is).
	Speedup float64
	NAMD    float64
	KS      float64
	KSTest  stats.TestResult
	W1      float64
	JSD     float64
	Overlap float64
	// MannWhitney tests stochastic dominance.
	MannWhitney stats.TestResult
	ModesA      int
	ModesB      int
}

// Compare computes the full similarity comparison between two sample sets.
// The similarity metrics, the KS and Mann-Whitney tests and the mode counts
// all consume sorted views, so the Group cache sorts each sample once
// instead of once per statistic; every value is identical to calling the
// statistics on the raw samples. The means keep the input order.
func Compare(nameA string, a []float64, nameB string, b []float64) (Comparison, error) {
	if len(a) == 0 || len(b) == 0 {
		return Comparison{}, errors.New("core: cannot compare empty sample sets")
	}
	ga, gb := similarity.NewGroup(a), similarity.NewGroup(b)
	metric := func(m similarity.Metric) (float64, error) {
		return similarity.ComputeGroups(m, ga, gb)
	}
	namd, err := metric(similarity.MetricNAMD)
	if err != nil {
		return Comparison{}, err
	}
	ks, err := metric(similarity.MetricKS)
	if err != nil {
		return Comparison{}, err
	}
	w1, err := metric(similarity.MetricWasserstein)
	if err != nil {
		return Comparison{}, err
	}
	jsd, err := metric(similarity.MetricJSD)
	if err != nil {
		return Comparison{}, err
	}
	overlap, err := metric(similarity.MetricOverlap)
	if err != nil {
		return Comparison{}, err
	}
	meanA, meanB := stats.Mean(a), stats.Mean(b)
	return Comparison{
		NameA: nameA, NameB: nameB,
		NA: len(a), NB: len(b),
		MeanA: meanA, MeanB: meanB,
		Speedup:     meanA / meanB,
		NAMD:        namd,
		KS:          ks,
		KSTest:      stats.KSTestSorted(ga.Sorted(), gb.Sorted()),
		W1:          w1,
		JSD:         jsd,
		Overlap:     overlap,
		MannWhitney: stats.MannWhitneyU(ga.Sorted(), gb.Sorted()),
		ModesA:      stats.CountModesView(a, ga.Sorted()),
		ModesB:      stats.CountModesView(b, gb.Sorted()),
	}, nil
}

// CompareResults compares the primary-metric distributions of two Results.
func CompareResults(a, b *Result) (Comparison, error) {
	return Compare(a.Experiment.Name, a.Samples, b.Experiment.Name, b.Samples)
}

// ExperimentFromConfig builds an Experiment from a configuration document —
// the launcher's file-driven mode (§IV-a: behavior "controlled via the
// command line ... or a JSON or YAML interface"). Expected structure:
//
//	experiment:
//	  name: nightly-hotspot
//	  workload: hotspot
//	  rule: ks
//	  threshold: 0.1
//	  max_runs: 1000
//	  min_runs: 10
//	  warmup_runs: 2
//	  concurrency: 1
//	  day: 1
//	  seed: 42
//	  metric: exec_time
//	  retries: 3              # total attempts per run (resilience.Wrap)
//	  retry_base_delay: 10ms
//	  failure_budget: 0.5     # abort past this failed-run fraction
//	  max_consecutive_failures: 10
//	  chaos:                  # optional deterministic fault injection
//	    error_rate: 0.1
//	    timeout_rate: 0.05
//	    latency_rate: 0.05
//	    panic_rate: 0
//	    seed: 42
//	  backend:
//	    type: sim
//	    machine: machine1
func ExperimentFromConfig(doc *config.Document, path string) (Experiment, error) {
	e := Experiment{
		Name:        doc.String(path+".name", ""),
		Workload:    doc.String(path+".workload", ""),
		Args:        doc.Strings(path + ".args"),
		Metric:      doc.String(path+".metric", ""),
		Concurrency: doc.Int(path+".concurrency", 1),
		WarmupRuns:  doc.Int(path+".warmup_runs", 0),
		Cold:        doc.Bool(path+".cold", false),
		Day:         doc.Int(path+".day", 1),
		Seed:        uint64(doc.Int(path+".seed", 42)),
		Parallel:    doc.Int(path+".parallel", 0),
	}
	if e.Workload == "" {
		return e, errors.New("core: config: experiment needs a workload")
	}
	if t := doc.String(path+".timeout", ""); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			return e, fmt.Errorf("core: config: bad timeout: %w", err)
		}
		e.Timeout = d
	}
	if r := doc.Int(path+".retries", 1); r > 1 {
		e.Retry = resilience.Policy{MaxAttempts: r, Seed: e.Seed}
		if d := doc.String(path+".retry_base_delay", ""); d != "" {
			bd, err := time.ParseDuration(d)
			if err != nil {
				return e, fmt.Errorf("core: config: bad retry_base_delay: %w", err)
			}
			e.Retry.BaseDelay = bd
		}
	}
	e.FailureBudget = FailureBudget{
		MaxFraction:    doc.Float(path+".failure_budget", 0),
		MaxConsecutive: doc.Int(path+".max_consecutive_failures", 0),
	}
	b, err := backend.FromConfig(doc, path+".backend")
	if err != nil {
		return e, err
	}
	if doc.Map(path+".chaos") != nil {
		b = backend.NewChaos(b, backend.ChaosConfig{
			Seed:         uint64(doc.Int(path+".chaos.seed", int(e.Seed))),
			ErrorRate:    doc.Float(path+".chaos.error_rate", 0),
			TimeoutRate:  doc.Float(path+".chaos.timeout_rate", 0),
			LatencyRate:  doc.Float(path+".chaos.latency_rate", 0),
			LatencySpike: doc.Float(path+".chaos.latency_spike", 0),
			PanicRate:    doc.Float(path+".chaos.panic_rate", 0),
		})
	}
	e.Backend = b
	ruleName := doc.String(path+".rule", "meta")
	rule, err := stopping.NewNamed(ruleName, doc.Float(path+".threshold", 0), stopping.Bounds{
		MinSamples: doc.Int(path+".min_runs", 0),
		MaxSamples: doc.Int(path+".max_runs", 0),
	})
	if err != nil {
		return e, err
	}
	e.Rule = rule
	return e, nil
}
