package core

// The campaign loop. Every measurement campaign executes through one
// Stepper: Run is a stepper driven to completion, Resume is a stepper
// seeded from the recorded log, and the budgeted sweep advances one stepper
// per cell a few runs at a time. The prologue (defaults, campaign.start,
// warm-ups) happens when the stepper opens, Step executes measured runs in
// batches and folds each through processRun in run order, and every exit —
// rule stopped, budget exhausted, failure budget, interrupt — finalizes the
// Result through finalize. Because the (run index, invoke, merge) sequence is
// the same whatever the batch sizes, a campaign driven to rule completion
// through any sequence of Step calls produces the same bytes.
//
// Batches come in two modes:
//
//   - Experiment.Parallel <= 1: a batch is one run, invoked inline on the
//     calling goroutine — no goroutine and no per-run allocation.
//   - Experiment.Parallel > 1: a batch is speculative. A dynamic stopping
//     rule can only change its decision at a CheckEvery boundary (or at the
//     MaxSamples cap), so the runs between two checks are known to be
//     needed before they start and can execute concurrently without
//     speculating on the rule's answer. The stepper launches the runs up to
//     the next check boundary (rounded up to keep every worker busy, capped
//     by the runs Step may still attempt) on a bounded worker pool, merges
//     the outcomes strictly in run order — the clock is read once per run,
//     in run order — and discards any overshoot past the point the rule
//     stops.
//
// Determinism of the batched mode: per-run values come from the backend,
// and SHARP's run-addressable backends derive their draws from the
// request's run index — InProcess hashes it directly, while Sim and Chaos
// are switched into run-ordered draw synthesis (backend.SetRunOrdered,
// applied to every layer of the decorator chain when the stepper opens) so
// their streams become a function of run index regardless of arrival
// order. Combined with the ordered merge, the samples, tidy rows, CSV bytes
// and stop decision are bit-identical to the sequential mode
// (differential-tested in parallel_test.go, including under chaos fault
// injection). The one caveat is retries: resilience.Wrap's re-invocations
// consume extra draws at arrival time, so parallel campaigns with retries
// enabled remain valid but are not guaranteed bit-identical to sequential
// ones.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"sharp/internal/backend"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

// Stepper executes a campaign incrementally, batch by batch. It is not safe
// for concurrent use; the budget scheduler drives each cell's Stepper from
// one goroutine at a time.
type Stepper struct {
	l   *Launcher
	e   Experiment
	res *Result
	// run is the last merged run.
	run int
	// consecutiveFailed threads the failure-budget counter across batches.
	consecutiveFailed int
	// outs holds a parallel batch's invocation outcomes, reused across
	// batches.
	outs []outcome
	// names is processRun's metric-name scratch, reused across
	// invocations.
	names []string
	// terminal is set once the campaign reached a final state mid-Step
	// (failure budget, interrupt, sink error); the matching error is
	// returned from any further Step.
	terminal error
	final    bool
}

// outcome is one run's invocation result inside a parallel batch.
type outcome struct {
	invs     []backend.Invocation
	err      error
	panicked any
}

// ruleBounds exposes the guard rails of rules built on stopping's base.
type ruleBounds interface{ Bounds() stopping.Bounds }

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

// prepare readies the backend for measurement. A batched campaign switches
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
// run cut short by an error. A parallel batch's speculative runs past the
// stop decision or an interrupt are discarded and not counted, and a batch
// never exceeds the runs left of n. Every error finalizes the result at the
// last merged run — a failure-budget abort or interrupt returns
// ErrFailureBudget / ErrInterrupted wrapped, anything else (a row sink
// refusing a run) aborts — and the attempted-run count is still reported so
// budget accounting stays exact.
func (s *Stepper) Step(ctx context.Context, n int) (int, error) {
	if s.terminal != nil {
		return 0, s.terminal
	}
	batched := s.e.Parallel > 1
	ran := 0
	for ran < n && !s.e.Rule.Done() {
		if err := ctx.Err(); err != nil {
			return ran, s.interrupt(err)
		}
		batch := 1
		if batched {
			batch = s.invokeBatch(ctx, n-ran)
		}
		for i := 0; i < batch && !s.e.Rule.Done(); i++ {
			var invs []backend.Invocation
			var invErr error
			if batched {
				if err := ctx.Err(); err != nil {
					return ran, s.interrupt(err)
				}
				if p := s.outs[i].panicked; p != nil {
					// Re-raised at this run's merge position, exactly where
					// the sequential mode would have panicked.
					panic(p)
				}
				invs, invErr = s.outs[i].invs, s.outs[i].err
			} else {
				if s.l.Tracer != nil {
					s.l.trace(obs.EventRunScheduled, map[string]any{"run": s.run + 1})
				}
				invs, invErr = s.e.Backend.Invoke(ctx, s.l.request(s.e, s.run+1))
			}
			s.run++
			ran++
			if err := s.processRun(ctx, invs, invErr); err != nil {
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
		}
	}
	return ran, nil
}

// invokeBatch executes the next speculative batch of a parallel campaign
// into s.outs and returns its size: the distance to the next check boundary
// (in samples), rounded up to a multiple of CheckEvery that keeps every
// worker busy, clamped by the samples remaining to the hard cap and by max,
// the runs Step may still attempt. Failed runs add no samples, so a batch
// may under-deliver; Step simply launches another.
func (s *Stepper) invokeBatch(ctx context.Context, max int) int {
	checkEvery, maxSamples := 10, 1000
	if rb, ok := s.e.Rule.(ruleBounds); ok {
		b := rb.Bounds()
		checkEvery, maxSamples = b.CheckEvery, b.MaxSamples
	}
	n := s.e.Rule.N()
	batch := checkEvery - n%checkEvery
	for batch < s.e.Parallel {
		batch += checkEvery
	}
	if rem := maxSamples - n; rem > 0 && rem < batch {
		batch = rem
	}
	batch = min(batch, max)
	if batch < 1 {
		batch = 1
	}
	if cap(s.outs) < batch {
		s.outs = make([]outcome, batch)
	}
	s.l.invokeAll(ctx, s.e.Backend, s.l.request(s.e, s.run+1), s.e.Parallel, s.outs[:batch])
	return batch
}

// invokeAll invokes the runs first.Run, first.Run+1, ... into outs on up to
// workers goroutines and waits for all of them. It takes values, not the
// Stepper: a Stepper captured by the workers would escape to the heap, and
// with it every sequential Run's stepper, which otherwise stays on the
// stack.
func (l *Launcher) invokeAll(ctx context.Context, b backend.Backend, first backend.Request, workers int, outs []outcome) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(outs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := first
				req.Run += i
				outs[i] = invokeCaptured(ctx, b, req)
			}
		}()
	}
	for i := range outs {
		if l.Tracer != nil {
			// Emitted from the dispatch loop (not the workers) so the
			// schedule order in the trace is canonical run order even
			// under concurrency.
			l.trace(obs.EventRunScheduled, map[string]any{"run": first.Run + i})
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
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
		s.names = s.names[:0]
		for metricName := range inv.Metrics {
			s.names = append(s.names, metricName)
		}
		slices.Sort(s.names)
		for _, metricName := range s.names {
			res.Rows = append(res.Rows, record.Row{
				Timestamp:  now,
				Experiment: s.e.Name,
				Workload:   s.e.Workload,
				Backend:    s.e.Backend.Name(),
				Machine:    inv.Worker,
				Day:        s.e.Day,
				Run:        run,
				Instance:   inv.Instance,
				Metric:     metricName,
				Value:      inv.Metrics[metricName],
				Unit:       unitFor(metricName),
				Status:     record.StatusOK,
				Attempt:    attempts(inv),
			})
		}
		if v, has := inv.Metrics[s.e.Metric]; has {
			sum += v
			ok++
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
// means the budget still holds.
func (s *Stepper) overBudget() error {
	over, why := s.e.FailureBudget.exceeded(s.consecutiveFailed, s.res.FailedRuns, s.run)
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
