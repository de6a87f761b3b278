// Budgeted sweep execution: instead of driving each cell to exhaustion in
// grid order, RunBudgeted interleaves batches across all cells under the
// deterministic budget scheduler (package budget), spending a fixed run
// budget where the stopping-rule statistics say it buys the most
// convergence. Budget 0 means unlimited: every cell runs to rule
// completion, and because cells share no state the outcome is
// byte-identical to the exhaustive Run — the differential tests pin that.
package sweep

import (
	"context"
	"errors"
	"fmt"

	"sharp/internal/budget"
	"sharp/internal/cache"
	"sharp/internal/core"
	"sharp/internal/stopping"
)

// budgetCell adapts one grid cell's incremental campaign (a core.Stepper)
// to the scheduler's Cell interface. A cell that exhausts its failure
// budget is terminal-but-measured: the failure rows are data and the sweep
// continues, so the error is swallowed here and the cell reports done.
type budgetCell struct {
	key string
	st  *core.Stepper
	// aborted marks a failure-budget termination (cell done, not converged).
	aborted bool
	// err is a terminal non-budget error (interrupt, sink failure).
	err error
}

func (c *budgetCell) Key() string { return c.key }

func (c *budgetCell) Done() bool { return c.aborted || c.err != nil || c.st.Done() }

func (c *budgetCell) Progress() stopping.Progress { return c.st.Progress() }

func (c *budgetCell) Step(ctx context.Context, n int) (int, error) {
	ran, err := c.st.Step(ctx, n)
	if err != nil {
		if errors.Is(err, core.ErrFailureBudget) {
			c.aborted = true
			return ran, nil
		}
		c.err = err
		return ran, err
	}
	return ran, nil
}

// converged reports whether the cell's rule stopped on its own — the only
// state worth caching.
func (c *budgetCell) converged() bool { return c.err == nil && !c.aborted && c.st.Done() }

// RunBudgeted executes the design under a total run budget (Design.Budget;
// 0 = unlimited), allocating batches across cells with the configured
// policy. Cached cells replay for zero budget. The returned Outcome carries
// the allocation ledger; cells the budget starved hold partial results with
// stop reason "run budget exhausted". On interrupt the partial Outcome
// holds every completed cell alongside the error, like Run.
func RunBudgeted(ctx context.Context, d Design) (*Outcome, error) {
	d, err := d.withDefaults()
	if err != nil {
		return nil, err
	}
	policy, err := budget.ParsePolicy(d.BudgetPolicy)
	if err != nil {
		return nil, err
	}
	plans, err := d.plans()
	if err != nil {
		return nil, err
	}
	launcher := d.newLauncher()
	var store *cache.Store
	if d.CacheDir != "" {
		if store, err = cache.Open(d.CacheDir); err != nil {
			return nil, err
		}
		// Persist the lookup counters before returning; they are advisory,
		// so a failed write never fails the sweep.
		defer store.Close()
	}

	// Phase 1: resolve cache hits (zero budget consumed) and open a stepper
	// for every cell that needs measuring, in canonical grid order.
	type slot struct {
		plan   cellPlan
		key    string
		cached *core.Result // non-nil: replayed, no budget needed
		bc     *budgetCell
	}
	slots := make([]slot, len(plans))
	var pending []budget.Cell
	for i, p := range plans {
		slots[i].plan = p
		name := d.cellName(p)
		if store != nil {
			slots[i].key = d.cellKey(p)
			rows, _, err := store.Get(slots[i].key, name)
			if err != nil {
				rows = nil // damaged entry: degrade to a miss (see Run)
			}
			if rows != nil {
				e, err := d.experimentFor(p)
				if err != nil {
					return nil, err
				}
				if res, err := launcher.ReplayLog(e, rows); err == nil {
					slots[i].cached = res
					continue
				}
			}
		}
		e, err := d.experimentFor(p)
		if err != nil {
			return nil, err
		}
		st, err := launcher.NewStepper(ctx, e)
		if err != nil {
			return nil, err
		}
		slots[i].bc = &budgetCell{key: Cell{
			Workload: p.workload, Machine: p.machineName,
			Day: p.day, Concurrency: p.concurrency,
		}.Key(), st: st}
		pending = append(pending, slots[i].bc)
	}

	// Phase 2: let the scheduler spend the budget across the pending cells.
	sched := budget.New(budget.Config{
		Runs:      d.Budget,
		Policy:    policy,
		BatchRuns: d.BatchRuns,
		Parallel:  d.Parallel,
		Spent:     d.BudgetSpent,
		Tracer:    d.Tracer,
		Registry:  d.Registry,
	}, pending)
	ledger, schedErr := sched.Run(ctx)

	// Phase 3: assemble the outcome in canonical order. Converged cells are
	// cached; budget-starved cells keep their partial results. After an
	// interrupt only completed cells are included (Run's partial-Outcome
	// contract) — with the cache on, a re-run replays them for free.
	var cells []Cell
	for i := range slots {
		s := &slots[i]
		p := s.plan
		mk := func(res *core.Result) Cell {
			return Cell{
				Workload: p.workload, Machine: p.machineName,
				Day: p.day, Concurrency: p.concurrency, Result: res,
			}
		}
		switch {
		case s.cached != nil:
			cells = append(cells, mk(s.cached))
		case s.bc.converged():
			res := s.bc.st.Finish("")
			if store != nil {
				if err := store.Put(s.key, cellCacheKind, d.cellName(p), res.Rows); err != nil {
					return nil, err
				}
			}
			cells = append(cells, mk(res))
		case s.bc.aborted:
			// Failure-budget termination: measured, not cached.
			cells = append(cells, mk(s.bc.st.Finish("")))
		case schedErr == nil:
			// Budget ran out before this cell converged: a partial result.
			cells = append(cells, mk(s.bc.st.Finish("run budget exhausted")))
		}
	}
	out := &Outcome{Design: d, Cells: cells, Budget: ledger}
	if schedErr != nil {
		return out, fmt.Errorf("sweep: budgeted run: %w", schedErr)
	}
	return out, nil
}
