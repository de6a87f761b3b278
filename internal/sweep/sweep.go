// Package sweep orchestrates factorial experiment designs over SHARP: a
// grid of factors (workload, machine, day, concurrency) is expanded into
// experiments, each measured with its own stopping rule, and the combined
// tidy-data results are analyzed factor by factor — including quantile
// regression of the response against numeric factors, the technique the
// paper's related work recommends over ANOVA (§VII, De Oliveira et al.).
//
// This is the "experiment design" activity of the paper's GUI roadmap,
// available programmatically and from workflows.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"sharp/internal/backend"
	"sharp/internal/budget"
	"sharp/internal/cache"
	"sharp/internal/core"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/stats"
	"sharp/internal/stats/stream"
	"sharp/internal/stopping"
	"sharp/internal/textplot"
)

// cellCacheKind versions the sweep cell cache namespace; bump it if the
// cell execution semantics change in a way that invalidates cached rows.
const cellCacheKind = "sweep-cell/v2"

// Design is a full-factorial experiment plan.
type Design struct {
	// Name labels the sweep in logs.
	Name string
	// Workloads to measure (required, >= 1).
	Workloads []string
	// Machines to measure on (required, >= 1; simulated backends are
	// created per machine).
	Machines []string
	// Days to measure (default: just day 1).
	Days []int
	// Concurrencies per run (default: just 1).
	Concurrencies []int
	// RuleName and Threshold pick the stopping rule per cell (default ks 0.1).
	RuleName  string
	Threshold float64
	// MaxRuns caps each cell (default 300).
	MaxRuns int
	// Seed drives all cells deterministically.
	Seed uint64
	// Parallel measures (and replays) up to this many cells concurrently
	// (default 1: sequential). Each cell owns a private simulated backend
	// and stopping rule, so cells share no state and the outcome is
	// identical — cell order included — at any parallelism, capped or not.
	Parallel int
	// CacheDir, when non-empty, enables the content-addressed result cache:
	// each completed cell is stored under a key derived from everything its
	// outcome depends on (design name, factors, rule, bounds, seed), and a
	// later run of the same cell replays the cached rows through
	// core.Launcher.ReplayLog with zero backend calls — bit-identical
	// results included.
	CacheDir string
	// Budget is the total run budget allocated across all cells (<= 0, the
	// default, = unlimited: every cell is driven to rule completion).
	Budget int
	// BudgetPolicy selects the allocation strategy under a Budget cap:
	// "ucb" (default), "halving", or "rr". See package budget.
	BudgetPolicy string
	// BatchRuns is the batch size per budget allocation (default 10,
	// aligning batches with the rules' default CheckEvery).
	BatchRuns int
	// BudgetSpent seeds the consumed-run counter when resuming from a saved
	// budget ledger: the budget left is Budget - BudgetSpent.
	BudgetSpent int
	// Chaos, when non-nil, wraps every cell backend in deterministic fault
	// injection — the sweep-level knob for measuring under failures.
	Chaos *backend.ChaosConfig
	// Tracer receives campaign, budget and cache events (nil disables).
	Tracer obs.Tracer
	// Registry exports budget gauges and cache lookup counters (nil
	// disables).
	Registry *obs.Registry
	// clock overrides the launcher time source (tests pin it to make sweep
	// logs byte-comparable across execution strategies).
	clock func() time.Time
}

// SetClock freezes the launcher time source, making sweep CSVs
// byte-comparable across processes (the CLI maps SHARP_CLOCK here). Kept a
// setter so Design stays JSON-marshalable.
func (d *Design) SetClock(c func() time.Time) { d.clock = c }

func (d Design) withDefaults() (Design, error) {
	if len(d.Workloads) == 0 {
		return d, errors.New("sweep: no workloads")
	}
	if len(d.Machines) == 0 {
		return d, errors.New("sweep: no machines")
	}
	if len(d.Days) == 0 {
		d.Days = []int{1}
	}
	if len(d.Concurrencies) == 0 {
		d.Concurrencies = []int{1}
	}
	if d.RuleName == "" {
		d.RuleName = "ks"
		d.Threshold = 0.1
	}
	if d.MaxRuns <= 0 {
		d.MaxRuns = 300
	}
	if d.Name == "" {
		d.Name = "sweep"
	}
	return d, nil
}

// Cell is one factor combination and its measured result.
type Cell struct {
	Workload    string
	Machine     string
	Day         int
	Concurrency int
	Result      *core.Result
}

// Key renders the cell coordinates.
func (c Cell) Key() string {
	return fmt.Sprintf("%s|%s|d%d|c%d", c.Workload, c.Machine, c.Day, c.Concurrency)
}

// Outcome is the executed sweep. An interrupted sweep (context cancelled
// mid-run) returns a partial Outcome holding every completed cell alongside
// the core.ErrInterrupted-wrapped error, mirroring the launcher's
// checkpoint contract: with the cache enabled, re-running the same design
// replays the finished cells and re-measures only the rest.
type Outcome struct {
	Design Design
	Cells  []Cell
	// Budget is the scheduler's ledger: runs spent and per-cell states,
	// plus the allocations when Design.Budget caps the sweep.
	Budget *budget.Ledger
}

// plans expands the factor grid in canonical order (workload, machine, day,
// concurrency — the cell order of every Outcome) into the cells' campaigns,
// validating each: a private, seeded sim backend on the cell's machine
// (cells share no state, which is what makes any execution order produce
// identical results) under the design's rule. A cell's canonical spec
// encoding is its cache key, so a new factor can never silently alias an
// old entry.
func (d Design) plans() ([]core.Spec, error) {
	var plans []core.Spec
	for _, wl := range d.Workloads {
		for _, machName := range d.Machines {
			for _, day := range d.Days {
				for _, conc := range d.Concurrencies {
					s := core.Spec{
						Name:     fmt.Sprintf("%s/%s@%s", d.Name, wl, machName),
						Workload: wl,
						Backend:  core.BackendSpec{Kind: "sim", Machine: machName, Seed: d.Seed, Chaos: d.Chaos},
						Rule: stopping.Spec{Kind: d.RuleName, Threshold: d.Threshold,
							Bounds: stopping.Bounds{MaxSamples: d.MaxRuns}},
						Concurrency: conc,
						Day:         day,
						Seed:        d.Seed,
					}
					if err := s.Validate(); err != nil {
						return nil, err
					}
					plans = append(plans, s)
				}
			}
		}
	}
	return plans, nil
}

// newLauncher builds the sweep's launcher with the design's tracer and
// clock override applied.
func (d Design) newLauncher() *core.Launcher {
	l := core.NewLauncher()
	l.Tracer = d.Tracer
	if d.clock != nil {
		l.Clock = d.clock
	}
	return l
}

// Run executes the design. Every cell needing measurement is a
// core.Stepper driven by the budget scheduler (package budget); cells share
// no state, so the outcome — cell order included — is identical at any
// Design.Parallel. With Design.Budget <= 0 (the default) each cell runs to
// its rule's completion, up to Parallel cells at a time. A positive Budget
// caps the measured runs across all cells, allocated batch by batch under
// BudgetPolicy; cells it starves keep partial results with stop reason
// "run budget exhausted". Cached cells replay for zero budget, and the
// Outcome carries the scheduler's ledger. On error (an interrupt, say) the
// partial Outcome holds every completed cell alongside it.
func Run(ctx context.Context, d Design) (*Outcome, error) {
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
		store.Tracer, store.Registry = d.Tracer, d.Registry
		// Persist the lookup counters before returning; they are advisory,
		// so a failed write never fails the sweep.
		defer store.Close()
	}

	// Resolve every cell, Parallel at a time: a cache hit replays, a miss
	// becomes a pending cell. A warm sweep is all replay, so this is where
	// its parallelism lives.
	cells := make([]sweepCell, len(plans))
	if err := budget.Each(len(plans), d.Parallel, func(i int) error {
		return cells[i].resolve(launcher, store, plans[i])
	}); err != nil {
		return nil, err
	}
	var pending []budget.Cell
	for i := range cells {
		if cells[i].res == nil {
			pending = append(pending, &cells[i])
		}
	}

	ledger, schedErr := budget.New(budget.Config{
		Runs:      d.Budget,
		Policy:    policy,
		BatchRuns: d.BatchRuns,
		Parallel:  d.Parallel,
		Spent:     d.BudgetSpent,
		Tracer:    d.Tracer,
		Registry:  d.Registry,
	}, pending).Run(ctx)

	// Assemble in canonical order. After an error only finished cells are
	// included; with the cache on, a re-run replays the converged ones.
	out := &Outcome{Design: d, Budget: ledger}
	for i := range cells {
		c := &cells[i]
		if c.res == nil && schedErr == nil {
			// The budget ran out before this cell converged: a partial
			// result (opening the campaign if it never got a run).
			if c.st == nil {
				if err := c.open(ctx); err != nil {
					return out, c.fail(err)
				}
			}
			c.res = c.st.Finish("run budget exhausted")
		}
		if c.res != nil {
			out.Cells = append(out.Cells, c.cell())
		}
	}
	return out, schedErr
}

// sweepCell is one grid cell: a replayed cache hit, or a campaign the
// scheduler advances through the budget.Cell interface. Its stepper opens
// on the first Step, so a cell's campaign.start marks when its measurement
// begins, not when the sweep does.
type sweepCell struct {
	spec     core.Spec
	key      string // cache key; empty without a cache
	launcher *core.Launcher
	store    *cache.Store
	e        core.Experiment
	st       *core.Stepper
	// res is the final result: replayed, converged, or failure-budget
	// terminated (measured, not cached).
	res *core.Result
	// err is a terminal error (interrupt, cache write).
	err error
}

// resolve replays the cell from the cache or readies it for measurement.
// A damaged entry the store could not self-heal (e.g. a corrupt
// commit-point JSON) and an unreplayable one (semantics drifted) both
// degrade to a miss: the fresh measurement overwrites them. One bad entry
// must never abort the sweep.
func (c *sweepCell) resolve(l *core.Launcher, store *cache.Store, s core.Spec) error {
	*c = sweepCell{spec: s, launcher: l, store: store}
	e, err := s.Experiment(nil)
	if err != nil {
		return err
	}
	if store != nil {
		c.key = s.CacheKey(cellCacheKind)
		if rows, _, err := store.Get(c.key, e.Name); err == nil && rows != nil {
			if res, err := l.ReplayLog(e, rows); err == nil {
				c.res = res
				return nil
			}
			// Replay consumed the stateful rule: measure on a fresh one.
			if e, err = s.Experiment(nil); err != nil {
				return err
			}
		}
	}
	c.e = e
	return nil
}

// cell renders the sweep cell with its result.
func (c *sweepCell) cell() Cell {
	s := c.spec
	return Cell{
		Workload: s.Workload, Machine: s.Backend.Machine,
		Day: s.Day, Concurrency: s.Concurrency, Result: c.res,
	}
}

// open starts the cell's campaign (the defaults, campaign.start and
// warm-ups of core.Launcher.NewStepper).
func (c *sweepCell) open(ctx context.Context) (err error) {
	c.st, err = c.launcher.NewStepper(ctx, c.e)
	return err
}

func (c *sweepCell) Key() string { return c.cell().Key() }

func (c *sweepCell) Done() bool { return c.res != nil || c.err != nil }

func (c *sweepCell) Progress() stopping.Progress {
	if c.st == nil {
		return stopping.Progress{} // unevaluated, as a fresh rule
	}
	return c.st.Progress()
}

// Step runs up to n more of the cell's runs. A converged cell is finished
// and cached at once, so its campaign.stop and cache write happen on the
// worker that measured it. A cell that exhausts its failure budget is a
// measured outcome — its failure rows are data and the rest of the grid is
// still worth measuring — so that error is swallowed and the cell reports
// done, uncached (the partial log is not a converged campaign).
func (c *sweepCell) Step(ctx context.Context, n int) (int, error) {
	if c.st == nil {
		if err := c.open(ctx); err != nil {
			return 0, c.fail(err)
		}
	}
	ran, err := c.st.Step(ctx, n)
	switch {
	case errors.Is(err, core.ErrFailureBudget):
		c.res = c.st.Finish("")
	case err != nil:
		return ran, c.fail(err)
	case c.st.Done():
		res := c.st.Finish("")
		if c.store != nil {
			if err := c.store.Put(c.key, cellCacheKind, c.e.Name, res.Rows); err != nil {
				return ran, c.fail(err)
			}
		}
		c.res = res
	}
	return ran, nil
}

// fail marks the cell terminally failed, naming it in the error.
func (c *sweepCell) fail(err error) error {
	c.err = fmt.Errorf("sweep: cell %s: %w", c.Key(), err)
	return c.err
}

// Rows flattens every cell's tidy-data log into one slice.
func (o *Outcome) Rows() []record.Row {
	var rows []record.Row
	for _, c := range o.Cells {
		rows = append(rows, c.Result.Rows...)
	}
	return rows
}

// SaveCSV writes the combined tidy log atomically (temp file + rename):
// an interrupted save never leaves a torn log at path.
func (o *Outcome) SaveCSV(path string) error {
	return record.WriteRowsAtomic(path, o.Rows())
}

// FactorEffect summarizes the response per level of one factor, pooling
// over all other factors.
type FactorEffect struct {
	Factor string
	Levels []LevelSummary
}

// LevelSummary is the response distribution at one factor level.
type LevelSummary struct {
	Level  string
	N      int
	Mean   float64
	Median float64
	P95    float64
	Modes  int
	// Inconclusive marks a level with no usable (finite) observations —
	// e.g. every run of its cells failed under chaos or the failure budget.
	// The numeric fields are zero, not NaN: a dead level must never poison
	// a pooled effect.
	Inconclusive bool
}

// ErrNoSamples marks an analysis over cells none of which produced a usable
// (finite) observation — a sweep whose every run failed.
var ErrNoSamples = errors.New("sweep: no usable samples")

// finiteSamples filters a cell's samples down to usable observations:
// failed-run cells contribute nothing, and NaN/Inf samples (a degenerate
// backend metric) are dropped rather than pooled.
func finiteSamples(dst, samples []float64) []float64 {
	for _, v := range samples {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			dst = append(dst, v)
		}
	}
	return dst
}

// EffectOf computes the per-level response summaries for a factor
// ("workload", "machine", "day", "concurrency"). Levels whose cells
// produced no usable samples (all runs failed) are reported as
// Inconclusive; if no level has usable data the error wraps ErrNoSamples.
func (o *Outcome) EffectOf(factor string) (FactorEffect, error) {
	groups := map[string][]float64{}
	var order []string
	add := func(level string, samples []float64) {
		if _, seen := groups[level]; !seen {
			order = append(order, level)
			groups[level] = nil
		}
		groups[level] = finiteSamples(groups[level], samples)
	}
	for _, c := range o.Cells {
		var level string
		switch factor {
		case "workload":
			level = c.Workload
		case "machine":
			level = c.Machine
		case "day":
			level = fmt.Sprintf("%d", c.Day)
		case "concurrency":
			level = fmt.Sprintf("%d", c.Concurrency)
		default:
			return FactorEffect{}, fmt.Errorf("sweep: unknown factor %q", factor)
		}
		add(level, c.Result.Samples)
	}
	eff := FactorEffect{Factor: factor}
	usable := 0
	for _, level := range order {
		s := groups[level]
		sum, err := stats.Describe(s)
		if err != nil {
			eff.Levels = append(eff.Levels, LevelSummary{Level: level, Inconclusive: true})
			continue
		}
		usable++
		eff.Levels = append(eff.Levels, LevelSummary{
			Level: level, N: sum.N, Mean: sum.Mean, Median: sum.Median,
			P95: sum.P95, Modes: stats.CountModes(s),
		})
	}
	if usable == 0 && len(order) > 0 {
		return eff, fmt.Errorf("%w for factor %q", ErrNoSamples, factor)
	}
	return eff, nil
}

// MeanCIWidth returns the mean relative CI half-width of the primary metric
// across cells at the given confidence level — the sweep-wide "statistical
// confidence per budget" figure of merit. Cells with fewer than two usable
// samples contribute +Inf (no confidence), so a scheduler that starves a
// cell cannot look good by skipping it.
func (o *Outcome) MeanCIWidth(level float64) float64 {
	if len(o.Cells) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, c := range o.Cells {
		var mom stream.Moments
		for _, v := range finiteSamples(nil, c.Result.Samples) {
			mom.Add(v)
		}
		if mom.N() < 2 {
			return math.Inf(1)
		}
		total += stats.RelativeCIHalfWidthFromMoments(mom.N(), mom.Mean(), mom.StdErr(), level)
	}
	return total / float64(len(o.Cells))
}

// Render summarizes the sweep as Markdown.
func (o *Outcome) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Sweep: %s\n\n", o.Design.Name)
	fmt.Fprintf(&b, "%d cells (%d workloads x %d machines x %d days x %d concurrencies)\n\n",
		len(o.Cells), len(o.Design.Workloads), len(o.Design.Machines),
		len(o.Design.Days), len(o.Design.Concurrencies))
	var rows [][]string
	for _, c := range o.Cells {
		sum, err := c.Result.Summary()
		if err != nil {
			continue
		}
		rows = append(rows, []string{
			c.Workload, c.Machine, fmt.Sprintf("%d", c.Day), fmt.Sprintf("%d", c.Concurrency),
			fmt.Sprintf("%d", sum.N), fmt.Sprintf("%.4g", sum.Mean),
			fmt.Sprintf("%.4g", sum.Median), fmt.Sprintf("%d", c.Result.Modes()),
		})
	}
	b.WriteString(textplot.Table(
		[]string{"workload", "machine", "day", "conc", "runs", "mean", "median", "modes"}, rows))
	return b.String()
}
