package core

// Campaign resume: continue an interrupted measurement campaign from its
// tidy-data log without re-measuring or approximating the completed runs.
//
// The mechanism has two halves:
//
//  1. State replay. The stopping rules are incremental accumulators (built
//     on stats/stream), so feeding them the per-run samples reconstructed
//     from the log rebuilds the exact decision state the interrupted
//     campaign had — in O(rows), no refitting. The per-run sample is
//     recomputed precisely the way processRun computed it (plain sum/count
//     of the primary metric over the run's OK instances, in row order), so
//     replay is bit-exact, not merely statistically equivalent.
//
//  2. Stream fast-forward. SHARP's deterministic backends (Sim, Chaos) draw
//     from seeded streams in arrival order. A fresh process re-executes the
//     warm-up runs first (consuming exactly the draws warm-ups consumed
//     originally), then backend.SkipRuns discards the draws the completed
//     measured runs consumed. The next Invoke therefore sees the same
//     stream position an uninterrupted campaign would have had, making
//     resumed campaigns bit-identical to uninterrupted ones — CSV bytes
//     included — under the same seed (differential-tested in
//     resume_test.go, sequential and parallel, with chaos injection).
//
// Non-deterministic backends (FaaS, local exec) resume correctly too; they
// simply continue measuring, without the bit-identity guarantee. The same
// caveat as parallel execution applies to retries: resilience.Wrap
// consumes extra draws at arrival time, so campaigns with retries enabled
// resume validly but not bit-identically.

import (
	"context"
	"fmt"

	"sharp/internal/backend"
	"sharp/internal/obs"
	"sharp/internal/record"
)

// Resume continues an interrupted campaign. e must be the same experiment
// configuration the campaign started with (same workload, backend kind,
// seed, rule, concurrency); rows is the repaired tidy-data log of the
// completed runs, as record.Reopen returns it with the writer that continues
// the log. Replayed rows are NOT re-sent to the Launcher's Log sink —
// they are already durable; only newly measured rows stream out.
//
// The returned Result spans the whole campaign: replayed rows and samples
// plus the newly measured ones.
func (l *Launcher) Resume(ctx context.Context, e Experiment, rows []record.Row) (*Result, error) {
	var s Stepper
	if err := s.open(l, e, rows); err != nil {
		return nil, err
	}
	if l.Tracer != nil {
		l.trace(obs.EventCampaignResume, map[string]any{
			"experiment": s.e.Name,
			"workload":   s.e.Workload,
			"backend":    s.e.Backend.Name(),
			"rule":       s.res.RuleName,
			"seed":       s.e.Seed,
			"from_run":   s.run,
			"rows":       len(rows),
			"samples":    len(s.res.Samples),
		})
	}
	// Budget parity: if the replayed prefix already exhausted the failure
	// budget, the original campaign aborted — report the same outcome
	// instead of measuring past it.
	if err := s.overBudget(); err != nil {
		return s.res, err
	}
	// Fast-forward the backend stream: warm-ups first (they consumed draws
	// before run 1 originally), then skip the completed measured runs.
	if err := s.prepare(ctx, "resume "); err != nil {
		return nil, err
	}
	if s.run > 0 {
		if _, err := backend.SkipRuns(s.e.Backend, s.e.Workload, s.e.Day, s.e.Concurrency, s.run); err != nil {
			return nil, fmt.Errorf("core: resume: fast-forward backend: %w", err)
		}
	}
	// A log cut exactly on the stop decision finishes without a run.
	return s.complete(ctx)
}

// ReplayLog reconstructs the completed Result of a recorded campaign from
// its tidy-data log with zero backend calls. e must be the configuration the
// campaign ran with (same workload, metric, rule, failure budget) carrying a
// fresh stopping rule; rows must be the complete log of a campaign that ran
// to its stop decision. Replay folds the rows through the same accumulator
// as Resume, so Samples, Errors, FailedRuns, Runs, and the stop decision are
// reconstructed bit-exactly. If the rule is not satisfied after the final
// run (the log belongs to an interrupted campaign) ReplayLog fails rather
// than guess; a log that exhausted its failure budget reproduces the
// original ErrFailureBudget outcome. Unlike Resume, nothing is traced and no
// rows are re-sent to the Log sink — the caller (the result cache) decides
// how to surface the replay.
func (l *Launcher) ReplayLog(e Experiment, rows []record.Row) (*Result, error) {
	var s Stepper
	// A clock-only launcher: the replay emits no events and streams no rows.
	if err := s.open(&Launcher{Clock: l.Clock}, e, rows); err != nil {
		return nil, err
	}
	if err := s.overBudget(); err != nil {
		return s.res, err
	}
	if !s.e.Rule.Done() {
		return nil, fmt.Errorf("core: replay: log is not a completed campaign: rule %q not satisfied after %d runs",
			s.res.RuleName, s.run)
	}
	return s.Finish(""), nil
}

// replayRows folds the recorded rows of runs 1..lastRun into the fresh res
// and the stopping rule, reproducing processRun's folding exactly: per-instance
// error rows count into res.Errors; the run's sample is the plain mean of
// the primary metric over OK rows in row order; a run with no OK primary
// rows is a failed run. Returns the last completed run index and the
// consecutive-failure count at the cut, the two loop variables the
// continuation needs.
//
// A log that goes on past the run where the campaign stopped (the rule was
// satisfied, or a failed run exhausted the failure budget) fails: no
// campaign under e wrote it, and the rule would silently ignore the extra
// samples. res.Rows adopts rows, capped at their length, instead of
// copying them, so appending to res.Rows never writes into the caller's
// array.
func (l *Launcher) replayRows(e Experiment, res *Result, rows []record.Row) (lastRun, consecutiveFailed int, err error) {
	type runAcc struct {
		sum    float64
		ok     int
		anyRow bool
	}
	// overBudget mirrors processRun, which checks the failure budget after
	// a failed run only.
	overBudget := false
	flush := func(run int, acc runAcc) {
		if !acc.anyRow {
			return
		}
		if acc.ok == 0 {
			res.FailedRuns++
			consecutiveFailed++
			overBudget, _ = e.FailureBudget.exceeded(consecutiveFailed, res.FailedRuns, run, e.Rule.Bounds().MaxSamples)
			return
		}
		consecutiveFailed = 0
		v := acc.sum / float64(acc.ok)
		res.Samples = append(res.Samples, v)
		e.Rule.Add(v)
	}
	var acc runAcc
	cur := 0
	for i, row := range rows {
		if row.Experiment != e.Name || row.Workload != e.Workload {
			return 0, 0, fmt.Errorf("core: resume: row %d belongs to experiment %q workload %q, want %q %q",
				i+1, row.Experiment, row.Workload, e.Name, e.Workload)
		}
		switch {
		case row.Run == cur:
			// same run, keep accumulating
		case row.Run == cur+1:
			flush(cur, acc)
			if e.Rule.Done() || overBudget {
				return 0, 0, fmt.Errorf("core: resume: log runs past the campaign's stop: row %d starts run %d, the campaign stopped after run %d",
					i+1, row.Run, cur)
			}
			acc = runAcc{}
			cur = row.Run
		default:
			return 0, 0, fmt.Errorf("core: resume: log is not contiguous: row %d jumps from run %d to run %d",
				i+1, cur, row.Run)
		}
		acc.anyRow = true
		if row.Status == record.StatusError {
			res.Errors++
			continue
		}
		if row.Metric == e.Metric {
			acc.sum += row.Value
			acc.ok++
		}
	}
	flush(cur, acc)
	res.Rows = rows[:len(rows):len(rows)]
	return cur, consecutiveFailed, nil
}
