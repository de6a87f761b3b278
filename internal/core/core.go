// Package core is SHARP's framework layer: the Launcher that orchestrates
// experiment repetitions over an execution backend under a dynamic stopping
// rule, the Result type carrying the full measurement distribution plus its
// tidy-data log, the comparison API built on the similarity metrics, and the
// metadata round-trip that recreates an experiment from its own record
// (§IV-a, §IV-d).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"sharp/internal/backend"
	"sharp/internal/classify"
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

	// spec is the Spec the experiment was built from (nil when assembled
	// by hand); Result.Metadata records it.
	spec *Spec
}

// FailureBudget is the launcher's graceful-degradation policy: instead of
// aborting on the first failure (and losing the campaign) or looping
// forever against a dead backend, the campaign aborts only once the budget
// is exhausted. Every failed run is recorded as data first.
type FailureBudget struct {
	// MaxConsecutive aborts after this many consecutive failed runs
	// (default 10; negative disables the check).
	MaxConsecutive int `json:"max_consecutive,omitempty"`
	// MaxFraction aborts when more than this fraction of runs failed,
	// checked once MinRuns runs completed (default 0.5; negative disables).
	MaxFraction float64 `json:"max_fraction,omitempty"`
	// MinRuns is the minimum number of runs before MaxFraction applies
	// (default 10).
	MinRuns int `json:"min_runs,omitempty"`
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
// With both checks disabled, maxRuns consecutive failed runs (the rule's
// MaxSamples) still exhaust it: a failed run adds no sample, so without
// this bound a campaign whose every run fails would never stop.
func (fb FailureBudget) exceeded(consecutive, failed, total, maxRuns int) (bool, string) {
	if fb.MaxConsecutive > 0 && consecutive >= fb.MaxConsecutive {
		return true, fmt.Sprintf("%d consecutive failed runs (budget %d)", consecutive, fb.MaxConsecutive)
	}
	if fb.MaxFraction > 0 && total >= fb.MinRuns &&
		float64(failed) > fb.MaxFraction*float64(total) {
		return true, fmt.Sprintf("%d/%d runs failed (budget %.0f%%)", failed, total, fb.MaxFraction*100)
	}
	if fb.MaxConsecutive < 0 && fb.MaxFraction < 0 && consecutive >= maxRuns {
		return true, fmt.Sprintf("%d consecutive failed runs (the rule's cap, budget checks disabled)", consecutive)
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
	// After Resume or ReplayLog its replayed prefix may share the array of
	// the rows passed in; it is capped at their length, so appending to Rows
	// never writes into that array, but writing an element of the prefix
	// writes the caller's row.
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

// Metadata builds the campaign's metadata record: the spec it was built
// from, in the canonical encoding RecreateExperiment decodes, and its
// outcome (runs, stop reason, error counts). An Experiment assembled by hand
// rather than by Spec.Experiment records no spec and cannot be recreated.
// The created stamp is the campaign's start on the launcher clock, so a
// pinned clock (SHARP_CLOCK) pins the metadata bytes too.
func (r *Result) Metadata() *record.Metadata {
	e := r.Experiment
	m := record.NewMetadata(e.Name, e.SUT)
	if !r.Started.IsZero() {
		m.Created = r.Started.UTC()
	}
	if e.spec != nil {
		if b, err := e.spec.Encode(); err == nil {
			m.Set(paramSpec, string(b))
		}
	}
	m.Set("runs", r.Runs)
	m.Set("stop_reason", r.StopReason)
	if r.Errors > 0 {
		m.Set("errors", r.Errors)
	}
	if r.FailedRuns > 0 {
		m.Set("failed_runs", r.FailedRuns)
	}
	return m
}

// SaveMetadata writes the metadata Markdown file to path.
func (r *Result) SaveMetadata(path string) error { return r.Metadata().WriteFile(path) }

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
	// Sorted holds the ascending views of the two sample sets,
	// stats.SortedCopy of A's and of B's, that every statistic above
	// was computed on; report.Comparison draws its plots from them instead
	// of sorting again. Shared; do not mutate.
	Sorted [2][]float64
}

// Compare computes the full similarity comparison between two sample sets.
// The similarity metrics, the KS and Mann-Whitney tests and the mode counts
// all consume sorted views, so the Group cache sorts each sample once
// instead of once per statistic; every value is identical to calling the
// statistics on the raw samples. The means keep the input order. The two
// sorted views are returned in Comparison.Sorted, so rendering the
// comparison sorts nothing again.
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
		Sorted:      [2][]float64{ga.Sorted(), gb.Sorted()},
	}, nil
}

// CompareResults compares the primary-metric distributions of two Results.
func CompareResults(a, b *Result) (Comparison, error) {
	return Compare(a.Experiment.Name, a.Samples, b.Experiment.Name, b.Samples)
}
