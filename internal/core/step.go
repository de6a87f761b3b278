package core

// The campaign loop. Every measurement campaign executes through one
// Stepper: Run is a stepper driven to completion, Resume is a stepper
// seeded from the recorded log, and the budgeted sweep advances one stepper
// per cell a few runs at a time. The prologue (defaults, campaign.start,
// warm-ups) happens when the stepper opens, Step executes measured runs and
// folds each through processRun in run order, and every exit — rule
// stopped, budget exhausted, failure budget, interrupt — finalizes the
// Result through finalize. Because the (run index, invoke, merge) sequence is
// the same whatever the Step sizes, a campaign driven to rule completion
// through any sequence of Step calls produces the same bytes.
//
// Step runs in spans. A stopping rule can only change its decision at a
// decision point — a CheckEvery boundary or its MaxSamples cap, both read
// from its Bounds; a Fixed rule's cap is its only one — so the runs up to
// the next decision point are known to be needed before they start. A span
// is those runs, capped by the runs Step may still attempt. Before the first
// span (once a run's row count is known) the stepper reserves Result.Rows up
// to the rule's MaxSamples cap, so a campaign allocates its log once whatever
// its rule; an adaptive campaign that stops early keeps the unused tail as
// slack.
//
//   - Experiment.Parallel <= 1: each run is invoked inline on the calling
//     goroutine — the stepper itself allocates nothing per run; the backend
//     allocates the run's invocations.
//   - Experiment.Parallel > 1: a window. Parallel workers live for the whole
//     Step call and invoke the runs the merge loop hands them, in run order,
//     never past the span's decision point and never more than the window
//     (windowRuns) ahead of the last merged run. The merge loop takes each
//     outcome as it lands, strictly in run order — the clock is read once per
//     run, in run order — so invocation and merging overlap, and no barrier
//     separates one group of runs from the next inside a span. Runs launched
//     but not merged (an interrupt, a failure-budget abort) are discarded.
//
// Determinism of the window: per-run values come from the backend, and
// SHARP's run-addressable backends derive their draws from the request's run
// index — InProcess hashes it directly, while Sim and Chaos are switched into
// run-ordered draw synthesis (backend.SetRunOrdered, applied to every layer
// of the decorator chain when the stepper opens) so their streams become a
// function of run index regardless of arrival order. Combined with the
// ordered merge, the samples, tidy rows, CSV bytes and stop decision are
// bit-identical to the sequential mode (differential-tested in
// parallel_test.go, including under chaos fault injection). The one caveat
// is retries: resilience.Wrap's re-invocations consume extra draws at arrival
// time, so parallel campaigns with retries enabled remain valid but are not
// guaranteed bit-identical to sequential ones.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"sharp/internal/backend"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

// Stepper executes a campaign incrementally, span by span. It is not safe
// for concurrent use; the budget scheduler drives each cell's Stepper from
// one goroutine at a time.
type Stepper struct {
	l   *Launcher
	e   Experiment
	res *Result
	// run is the last merged run.
	run int
	// consecutiveFailed threads the failure-budget counter across spans.
	consecutiveFailed int
	// rowsPerRun is the row count of the last merged run: the estimate the
	// row reservation is sized by (0 = nothing merged yet).
	rowsPerRun int
	// metrics is processRun's (name, value) scratch, reused across
	// invocations.
	metrics []metricValue
	// terminal is set once the campaign reached a final state mid-Step
	// (failure budget, interrupt, sink error); the matching error is
	// returned from any further Step.
	terminal error
	final    bool
}

// metricValue is one metric of an invocation, as processRun logs it.
type metricValue struct {
	name  string
	value float64
}

// outcome is one run's invocation result.
type outcome struct {
	invs     []backend.Invocation
	err      error
	panicked any
}

// NewStepper prepares an incremental campaign: defaults are applied, the
// campaign.start event is emitted and warm-up runs execute, exactly as in
// Run. The stepper starts at run 0 with nothing measured.
func (l *Launcher) NewStepper(ctx context.Context, e Experiment) (*Stepper, error) {
	s := new(Stepper)
	if err := s.start(ctx, l, e); err != nil {
		return nil, err
	}
	return s, nil
}

// open applies defaults and seeds the stepper with the completed runs
// recorded in rows (none for a fresh campaign): the constructor shared by
// fresh, resumed and replayed campaigns.
func (s *Stepper) open(l *Launcher, e Experiment, rows []record.Row) error {
	e, err := e.withDefaults()
	if err != nil {
		return err
	}
	if l.Tracer != nil {
		// Thread the tracer down the backend decorator chain (Chaos,
		// resilience.Wrap, ...) so every execution layer reports into the
		// same event stream.
		backend.SetTracer(e.Backend, l.Tracer)
	}
	*s = Stepper{l: l, e: e, res: &Result{
		Experiment: e,
		RuleName:   e.Rule.Name(),
		Started:    l.Clock(),
	}}
	s.run, s.consecutiveFailed, err = l.replayRows(e, s.res, rows)
	// The last replayed run sizes the first span's row reservation.
	for i := len(s.res.Rows) - 1; i >= 0 && s.res.Rows[i].Run == s.run; i-- {
		s.rowsPerRun++
	}
	return err
}

// start opens a fresh campaign: defaults, the campaign.start event, and the
// warm-up runs — the prologue shared by Run and NewStepper.
func (s *Stepper) start(ctx context.Context, l *Launcher, e Experiment) error {
	if err := s.open(l, e, nil); err != nil {
		return err
	}
	if l.Tracer != nil {
		l.trace(obs.EventCampaignStart, map[string]any{
			"experiment":  s.e.Name,
			"workload":    s.e.Workload,
			"backend":     s.e.Backend.Name(),
			"rule":        s.res.RuleName,
			"metric":      s.e.Metric,
			"seed":        s.e.Seed,
			"parallel":    s.e.Parallel,
			"concurrency": s.e.Concurrency,
		})
	}
	return s.prepare(ctx, "")
}

// prepare readies the backend for measurement. A parallel campaign switches
// every stream-stateful layer (Sim, Chaos) into run-ordered draw synthesis,
// so each run's value depends only on its run index, not on worker arrival
// order; sequential arrival order is canonical order, so this reproduces
// the sequential stream exactly. Then the warm-up runs execute and are
// discarded. Warm-up failures are tolerated (the measurement phase judges
// health), except configuration errors and cancellation; phase prefixes
// their error message.
func (s *Stepper) prepare(ctx context.Context, phase string) error {
	if s.e.Parallel > 1 {
		backend.SetRunOrdered(s.e.Backend, true)
	}
	for w := 0; w < s.e.WarmupRuns; w++ {
		if _, err := s.e.Backend.Invoke(ctx, s.l.request(s.e, -(w+1))); err != nil {
			if errors.Is(err, backend.ErrUnknownWorkload) || ctx.Err() != nil {
				return fmt.Errorf("core: %swarmup run %d: %w", phase, w+1, err)
			}
		}
	}
	return nil
}

// Done reports whether the campaign needs no further Step calls: the rule
// stopped, or a terminal condition (failure budget, interrupt) finalized it.
func (s *Stepper) Done() bool { return s.final || s.e.Rule.Done() }

// Progress returns the stopping rule's convergence snapshot — the statistic
// the budget scheduler scores cells on. Read-only: nothing is recomputed.
func (s *Stepper) Progress() stopping.Progress { return stopping.Snapshot(s.e.Rule) }

// Step executes up to n measured runs (fewer if the rule stops first) and
// returns how many were attempted: the runs merged into the result, plus a
// run cut short by an error. Runs execute in spans, each ending at the rule's
// next decision point; a span never exceeds the runs left of n, and a
// parallel campaign's runs launched but not merged (an interrupt, a failure
// budget abort) are discarded and not counted. Every error finalizes the
// result at the last merged run — a failure-budget abort or interrupt
// returns ErrFailureBudget / ErrInterrupted wrapped, anything else (a row
// sink refusing a run) aborts — and the attempted-run count is still
// reported so budget accounting stays exact.
func (s *Stepper) Step(ctx context.Context, n int) (int, error) {
	if s.terminal != nil {
		return 0, s.terminal
	}
	var w *window
	if s.e.Parallel > 1 && n > 0 {
		w = startWindow(ctx, s.e.Backend, s.l.request(s.e, 0), min(s.e.Parallel, n), s.run)
		// Deferred, so every exit — a panic re-raised below included —
		// returns only once the workers have stopped.
		defer w.stop()
	}
	ran := 0
	for ran < n && !s.e.Rule.Done() {
		end := s.run + s.span(n-ran)
		reserved := false
		for s.run < end && !s.e.Rule.Done() {
			if err := ctx.Err(); err != nil {
				return ran, s.interrupt(err)
			}
			if !reserved && s.rowsPerRun > 0 {
				// Sized by the last merged run, so a fresh campaign
				// reserves once its first run is in, and to the rule's
				// cap, so an adaptive campaign reserves once, as a fixed
				// one does; only failed runs, which add no sample, can
				// take it past that.
				runs := max(end-s.run, min(s.e.Rule.Bounds().MaxSamples-s.e.Rule.N(), capReserveRuns))
				s.res.Rows = reserveRows(s.res.Rows, s.rowsPerRun*runs)
				reserved = true
			}
			var o outcome
			if w != nil {
				w.feed(s.l, s.run, end)
				if o = w.take(s.run + 1); o.panicked != nil {
					// Re-raised at this run's merge position, exactly where
					// the sequential mode would have panicked.
					panic(o.panicked)
				}
			} else {
				if s.l.Tracer != nil {
					s.l.trace(obs.EventRunScheduled, map[string]any{"run": s.run + 1})
				}
				o.invs, o.err = s.e.Backend.Invoke(ctx, s.l.request(s.e, s.run+1))
			}
			rows := len(s.res.Rows)
			s.run++
			ran++
			if err := s.processRun(ctx, o.invs, o.err); err != nil {
				if errors.Is(err, ErrFailureBudget) {
					// processRun finalized the result; the failing run was
					// merged, so it counts as attempted.
					return ran, err
				}
				// Nothing of the run was merged, so the result ends at
				// the previous run.
				s.run--
				if ctx.Err() != nil {
					return ran, s.interrupt(ctx.Err())
				}
				// Any other error (unknown workload, a row sink refusing
				// the run) aborts the campaign.
				s.finalize(fmt.Sprintf("aborted after run %d: %v", s.run, err), false)
				s.terminal = err
				return ran, err
			}
			s.rowsPerRun = len(s.res.Rows) - rows
		}
	}
	return ran, nil
}

// span returns how many runs the next span may attempt: the samples missing
// to the rule's next decision point — its next CheckEvery boundary or its
// MaxSamples cap — clamped by limit, the runs Step may still attempt. Only a
// merged successful run adds a sample, so a span with failed runs ends short
// of the decision point and the next span covers the rest; it never passes
// it.
func (s *Stepper) span(limit int) int {
	b := s.e.Rule.Bounds()
	n := s.e.Rule.N()
	span := b.CheckEvery - n%b.CheckEvery
	if rem := b.MaxSamples - n; rem > 0 && rem < span {
		span = rem
	}
	return max(1, min(span, limit))
}

// capReserveRuns bounds the runs reserved ahead of an adaptive rule's
// decision points: a cap far above what a campaign ever reaches (a "no
// limit" --max) must not allocate its rows up front. Past it the log grows
// by span, as appending would.
const capReserveRuns = 1 << 16

// reserveRows makes room for n more rows. A reservation past twice the
// current capacity is allocated exactly, so a campaign's log is allocated
// once, at its rule's cap; a smaller one — the spans that failed runs push
// past the cap — takes append's amortized growth, so they copy no more than
// appending row by row would.
func reserveRows(rows []record.Row, n int) []record.Row {
	if need := len(rows) + n; need > 2*cap(rows) {
		grown := make([]record.Row, len(rows), need)
		copy(grown, rows)
		return grown
	}
	return slices.Grow(rows, n)
}

// windowRuns is the most runs a parallel campaign's workers may run ahead of
// the merge: enough that a worker rarely waits for the merge to free a slot,
// few enough that the outcomes held at once stay small for any campaign size.
const windowRuns = 64

// window is the worker pipeline of one parallel Step call. The merge loop
// hands run indices to the workers in run order through claims, never more
// than len(slots) runs past the last merged run and never past the current
// span's decision point; a worker invokes the run it claimed and delivers
// the outcome to the run's slot, from which the merge loop takes it in run
// order. Every run handed out holds its own slot until merged, so a
// delivery never blocks.
type window struct {
	claims chan int
	slots  []chan outcome
	// fed is the last run index handed out.
	fed int
	wg  sync.WaitGroup
}

// startWindow starts workers goroutines that invoke the runs handed out
// after run. It takes values, not the Stepper: a Stepper captured by the
// workers would escape to the heap, and with it every sequential Run's
// stepper, which otherwise stays on the stack.
func startWindow(ctx context.Context, b backend.Backend, req backend.Request, workers, run int) *window {
	size := max(windowRuns, 2*workers)
	w := &window{
		// Sized to the window: at most len(slots) runs are outstanding, so
		// handing out a run never blocks the merge loop.
		claims: make(chan int, size),
		slots:  make([]chan outcome, size),
		fed:    run,
	}
	for i := range w.slots {
		w.slots[i] = make(chan outcome, 1)
	}
	w.wg.Add(workers)
	for range workers {
		go func() {
			defer w.wg.Done()
			for r := range w.claims {
				req := req
				req.Run = r
				w.slots[r%len(w.slots)] <- invokeCaptured(ctx, b, req)
			}
		}()
	}
	return w
}

// feed hands out the runs up to end that fit in the window ahead of merged,
// the last merged run. The run.scheduled events are emitted here, not by the
// workers, so the trace schedules runs in canonical order.
func (w *window) feed(l *Launcher, merged, end int) {
	for w.fed < end && w.fed-merged < len(w.slots) {
		w.fed++
		if l.Tracer != nil {
			l.trace(obs.EventRunScheduled, map[string]any{"run": w.fed})
		}
		w.claims <- w.fed
	}
}

// take waits for run r's outcome and frees its slot.
func (w *window) take(r int) outcome { return <-w.slots[r%len(w.slots)] }

// stop withdraws the runs no worker has claimed yet, so they are never
// invoked, and returns once every worker has finished the run it holds and
// exited.
func (w *window) stop() {
drain:
	for {
		select {
		case <-w.claims:
		default:
			break drain
		}
	}
	close(w.claims)
	w.wg.Wait()
}

// invokeCaptured invokes one run on a worker goroutine. A backend panic
// (chaos injection) must not kill the process from there: it is captured
// and re-raised by Step at the run's merge position.
func invokeCaptured(ctx context.Context, b backend.Backend, req backend.Request) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o.panicked = p
		}
	}()
	o.invs, o.err = b.Invoke(ctx, req)
	return o
}

// processRun folds one run's invocation outcome into the result and the
// stopping rule — the single merge path of every campaign, which is what
// guarantees all modes produce identical rows, samples and stop decisions.
// It reads the clock exactly once per run (in run order), handles whole-run
// and per-instance failures, hands the run's rows to the sink in one call
// before the run can add a sample, and enforces the failure budget. A returned
// error wrapping ErrFailureBudget means the result was finalized as a
// partial result; any other error aborts the campaign.
func (s *Stepper) processRun(ctx context.Context, invs []backend.Invocation, invErr error) error {
	l, res, run := s.l, s.res, s.run
	now := l.Clock()
	start, errs := len(res.Rows), res.Errors
	if invErr != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(invErr, backend.ErrUnknownWorkload) {
			return fmt.Errorf("core: run %d: %w", run, invErr)
		}
		// Whole-run failure: record it as data and keep going.
		res.Errors++
		res.Rows = append(res.Rows, l.errorRow(s.e, now, run, backend.Invocation{}, invErr))
	}
	sum, ok := 0.0, 0
	for _, inv := range invs {
		if inv.Err != nil {
			res.Errors++
			res.Rows = append(res.Rows, l.errorRow(s.e, now, run, inv, inv.Err))
			continue
		}
		// Deterministic row order: metrics sorted by name, not map order —
		// byte-identical logs are what make crash recovery and resume
		// differential-testable.
		s.metrics = s.metrics[:0]
		for name, v := range inv.Metrics {
			s.metrics = append(s.metrics, metricValue{name, v})
		}
		if len(s.metrics) > 1 {
			slices.SortFunc(s.metrics, func(a, b metricValue) int { return strings.Compare(a.name, b.name) })
		}
		for _, m := range s.metrics {
			res.Rows = append(res.Rows, record.Row{
				Timestamp:  now,
				Experiment: s.e.Name,
				Workload:   s.e.Workload,
				Backend:    s.e.Backend.Name(),
				Machine:    inv.Worker,
				Day:        s.e.Day,
				Run:        run,
				Instance:   inv.Instance,
				Metric:     m.name,
				Value:      m.value,
				Unit:       unitFor(m.name),
				Status:     record.StatusOK,
				Attempt:    attempts(inv),
			})
			if m.name == s.e.Metric {
				sum += m.value
				ok++
			}
		}
	}
	if err := l.sinkRows(res.Rows[start:]); err != nil {
		// The log refused the run: it is not merged.
		res.Rows, res.Errors = res.Rows[:start], errs
		return err
	}
	if ok == 0 {
		res.FailedRuns++
		s.consecutiveFailed++
		if l.Tracer != nil {
			l.trace(obs.EventRunMerged, map[string]any{"run": run, "status": "failed"})
		}
		return s.overBudget()
	}
	s.consecutiveFailed = 0
	v := sum / float64(ok)
	res.Samples = append(res.Samples, v)
	if l.Tracer != nil {
		fields := map[string]any{"run": run, "status": "ok"}
		if finite(v) {
			fields["value"] = v
		}
		l.trace(obs.EventRunMerged, fields)
	}
	s.e.Rule.Add(v)
	l.traceRuleEval(s.e.Rule)
	if l.OnProgress != nil {
		l.OnProgress(stopping.Snapshot(s.e.Rule))
	}
	return nil
}

// overBudget finalizes the campaign at the last merged run when the failure
// budget is exhausted and returns the ErrFailureBudget-wrapped error; nil
// means the budget still holds. The budget runs out only on a failed run,
// the one place processRun asks: after a run that succeeded the failed
// fraction may still read above MaxFraction, yet the campaign goes on, so
// a resume or replay cut there must go on too.
func (s *Stepper) overBudget() error {
	if s.consecutiveFailed == 0 {
		return nil
	}
	over, why := s.e.FailureBudget.exceeded(s.consecutiveFailed, s.res.FailedRuns, s.run, s.e.Rule.Bounds().MaxSamples)
	if !over {
		return nil
	}
	s.finalize("failure budget exceeded: "+why, false)
	s.terminal = fmt.Errorf("%w after run %d: %s", ErrFailureBudget, s.run, why)
	return s.terminal
}

// interrupt finalizes a partial result at a run boundary after context
// cancellation: the runs up to the last merged one are fully recorded,
// nothing is half-recorded. The campaign.checkpoint event and the
// ErrInterrupted-wrapped error tell callers the result is resumable.
func (s *Stepper) interrupt(cause error) error {
	s.finalize(fmt.Sprintf("interrupted after run %d", s.run), true)
	s.terminal = fmt.Errorf("%w after run %d: %v", ErrInterrupted, s.run, cause)
	return s.terminal
}

// finalize finalizes the result at the last merged run — the one exit path of
// every campaign: it records the stop reason, reads the clock once for the
// finish time, and emits campaign.checkpoint (interrupted campaigns) and
// campaign.stop.
func (s *Stepper) finalize(reason string, checkpoint bool) {
	s.final = true
	s.res.Runs = s.run
	s.res.StopReason = reason
	s.res.Finished = s.l.Clock()
	if s.l.Tracer == nil {
		return
	}
	if checkpoint {
		s.l.trace(obs.EventCampaignCheckpoint, map[string]any{
			"experiment": s.e.Name,
			"run":        s.run,
			"rows":       len(s.res.Rows),
		})
	}
	s.l.trace(obs.EventCampaignStop, map[string]any{
		"experiment":  s.e.Name,
		"runs":        s.res.Runs,
		"samples":     len(s.res.Samples),
		"errors":      s.res.Errors,
		"failed_runs": s.res.FailedRuns,
		"stop_reason": s.res.StopReason,
	})
}

// Finish finalizes and returns the Result. When the rule stopped on its own
// the stop reason is the rule's explanation; otherwise — a budget ran out
// before convergence — reason is recorded. Finish after a terminal Step
// error returns the already-finalized partial result. Calling Finish more
// than once returns the same Result.
func (s *Stepper) Finish(reason string) *Result {
	if s.final {
		return s.res
	}
	if s.e.Rule.Done() {
		reason = s.e.Rule.Explain()
	} else {
		if reason == "" {
			reason = "stopped early"
		}
		reason = fmt.Sprintf("%s after run %d", reason, s.run)
	}
	s.finalize(reason, false)
	return s.res
}

// complete drives the stepper until the campaign ends. The rule stopping
// finishes it normally; a failure-budget or interrupt exit returns the
// finalized partial result with its error; any other error aborts the
// campaign with no result.
func (s *Stepper) complete(ctx context.Context) (*Result, error) {
	if _, err := s.Step(ctx, math.MaxInt); err != nil {
		if errors.Is(err, ErrFailureBudget) || errors.Is(err, ErrInterrupted) {
			return s.res, err
		}
		return nil, err
	}
	return s.Finish(""), nil
}
