// Package budget implements deterministic budget-aware scheduling across
// the cells of a sweep: given a fixed total run budget, it decides where
// the next batch of runs goes so the budget buys maximal statistical
// confidence (the Touati concern — spend runs where they make a claim
// statistically valid — made operational).
//
// Under a cap the scheduler advances cells in barrier-synchronized rounds.
// Each round it scores every unfinished cell on the read-only
// stopping.Progress snapshot the cell's rule already maintains (no
// statistic is recomputed), picks up to Parallel distinct cells under the
// configured policy, grants each a batch of runs, executes the batches
// (concurrently when Parallel > 1), and waits for all of them before
// scoring again. Because every pick depends only on pre-round state and
// cell execution is seeded, the full allocation sequence — and therefore
// the results — is byte-deterministic: same seed + same budget ⇒ identical
// Ledger, identical rows.
//
// With no cap there is nothing to allocate: no order of runs can change
// any cell's rows, so the scheduler drops the rounds and drains the cells,
// each of Parallel workers claiming the next cell in canonical order and
// driving it to completion.
//
// Policies:
//
//	rr       uniform round-robin over unfinished cells (the baseline the
//	         adaptive policies are judged against)
//	ucb      upper-confidence-bound: score = urgency + C·sqrt(ln(1+T)/(1+b))
//	         where T is the round number and b the runs the cell has
//	         received; unevaluated cells score +Inf (explore first)
//	halving  successive halving: each round only the least-converged half
//	         of the unfinished cells is eligible; as survivors converge the
//	         parked half re-enters automatically
package budget

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"sharp/internal/fsx"
	"sharp/internal/obs"
	"sharp/internal/stopping"
)

// Policy names a batch-allocation strategy.
type Policy string

// The recognized policies.
const (
	PolicyRoundRobin Policy = "rr"
	PolicyUCB        Policy = "ucb"
	PolicyHalving    Policy = "halving"
)

// ParsePolicy validates a policy name from configuration ("" defaults to
// ucb).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return PolicyUCB, nil
	case PolicyRoundRobin, PolicyUCB, PolicyHalving:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("budget: unknown policy %q (have rr, ucb, halving)", s)
	}
}

// Cell is one schedulable unit of work — in the sweep, one grid cell's
// incremental campaign (a core.Stepper behind an adapter). Implementations
// need not be safe for concurrent use: the scheduler steps each cell from
// at most one goroutine at a time.
type Cell interface {
	// Key identifies the cell in the ledger and events.
	Key() string
	// Done reports whether the cell needs no more runs.
	Done() bool
	// Progress returns the cell's convergence snapshot (read-only).
	Progress() stopping.Progress
	// Step executes up to n more runs and returns how many were attempted.
	// A terminal error (interrupt, abort) marks the cell done.
	Step(ctx context.Context, n int) (int, error)
}

// Config tunes a Scheduler.
type Config struct {
	// Runs is the total run budget across all cells; <= 0 means unlimited:
	// every cell is driven to rule completion, drained without rounds.
	Runs int
	// Policy selects the allocation strategy (default ucb).
	Policy Policy
	// BatchRuns is the batch granted per allocation (default 10, matching
	// the rules' default CheckEvery so every batch ends on a convergence
	// check).
	BatchRuns int
	// Parallel caps how many cells advance concurrently (<= 1 sequential).
	Parallel int
	// ExploreC is the UCB exploration constant (default 0.5).
	ExploreC float64
	// Spent seeds the consumed-run counter when resuming a budgeted sweep
	// from its checkpointed ledger.
	Spent int
	// Tracer receives budget.allocate / budget.exhausted events (nil
	// disables).
	Tracer obs.Tracer
	// Registry exports per-cell urgency and budget gauges (nil disables).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyUCB
	}
	if c.BatchRuns <= 0 {
		c.BatchRuns = 10
	}
	if c.Parallel < 1 {
		c.Parallel = 1
	}
	if c.ExploreC <= 0 {
		c.ExploreC = 0.5
	}
	if c.Spent < 0 {
		c.Spent = 0
	}
	return c
}

// Allocation is one scheduler decision: a batch of runs granted to a cell.
type Allocation struct {
	// Round is the barrier round the grant belongs to (1-based).
	Round int `json:"round"`
	// Cell is the grantee's key.
	Cell string `json:"cell"`
	// Runs is the batch size granted (post budget truncation).
	Runs int `json:"runs"`
	// Ran is how many runs the cell actually attempted (< Runs when the
	// rule stopped mid-batch; the difference returns to the pool).
	Ran int `json:"ran"`
}

// CellState is a cell's final accounting in the ledger.
type CellState struct {
	Key string `json:"key"`
	// Runs is the total runs the scheduler granted and the cell attempted.
	Runs int `json:"runs"`
	// Done reports whether the cell's rule stopped before the budget ran
	// out.
	Done bool `json:"done"`
	// Urgency is the cell's last known convergence urgency; -1 means the
	// cell never produced a convergence check (JSON cannot carry +Inf).
	Urgency float64 `json:"urgency"`
}

// Ledger is the complete, replayable record of a budgeted schedule: the
// checkpoint format PR-5-style resume continues from, and the artifact the
// determinism contract is tested on (same seed + same budget ⇒
// byte-identical marshaled ledger).
type Ledger struct {
	Policy    Policy `json:"policy"`
	Budget    int    `json:"budget"`
	BatchRuns int    `json:"batch_runs"`
	// Spent is the total runs consumed, including any seed from a resumed
	// ledger.
	Spent int `json:"spent"`
	// Exhausted is true when the budget ran out with cells unconverged.
	Exhausted bool        `json:"exhausted"`
	Cells     []CellState `json:"cells"`
	// Allocations lists the grants in order; an uncapped drain makes none.
	Allocations []Allocation `json:"allocations"`
}

// Save writes the ledger as JSON, atomically.
func (lg *Ledger) Save(path string) error {
	data, err := json.MarshalIndent(lg, "", "  ")
	if err != nil {
		return fmt.Errorf("budget: marshal ledger: %w", err)
	}
	return fsx.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadLedger reads a ledger written by Save.
func LoadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg Ledger
	if err := json.Unmarshal(data, &lg); err != nil {
		return nil, fmt.Errorf("budget: parse ledger %s: %w", path, err)
	}
	return &lg, nil
}

// Scheduler allocates a run budget across cells.
type Scheduler struct {
	cfg   Config
	cells []Cell
	// granted tracks runs attempted per cell (the UCB b term).
	granted []int
	// urgency caches each cell's last snapshot score for the ledger.
	urgency []float64
	rrNext  int
	ledger  *Ledger
}

// New returns a Scheduler over cells in their given (canonical) order.
func New(cfg Config, cells []Cell) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{
		cfg:     cfg,
		cells:   cells,
		granted: make([]int, len(cells)),
		urgency: make([]float64, len(cells)),
		ledger: &Ledger{
			Policy:    cfg.Policy,
			Budget:    cfg.Runs,
			BatchRuns: cfg.BatchRuns,
			Spent:     cfg.Spent,
		},
	}
}

// remaining returns the unconsumed budget of a capped schedule.
func (s *Scheduler) remaining() int {
	r := s.cfg.Runs - s.ledger.Spent
	if r < 0 {
		r = 0
	}
	return r
}

// score computes the policy score of cell i for the pick ordering (higher
// first). T is the 1-based round number.
func (s *Scheduler) score(i, round int) float64 {
	u := s.cells[i].Progress().Urgency()
	if s.cfg.Policy == PolicyUCB {
		return u + s.cfg.ExploreC*math.Sqrt(math.Log(1+float64(round))/(1+float64(s.granted[i])))
	}
	return u
}

// pick selects the cells to advance this round, in allocation order.
func (s *Scheduler) pick(round int) []int {
	eligible := make([]int, 0, len(s.cells))
	for i, c := range s.cells {
		if !c.Done() {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	switch s.cfg.Policy {
	case PolicyRoundRobin:
		// Rotate through unfinished cells in index order, resuming after
		// the last cell served in the previous round.
		k := min(s.cfg.Parallel, len(eligible))
		start := sort.SearchInts(eligible, s.rrNext)
		out := make([]int, 0, k)
		for j := 0; j < k; j++ {
			idx := eligible[(start+j)%len(eligible)]
			out = append(out, idx)
		}
		s.rrNext = out[len(out)-1] + 1
		return out
	case PolicyHalving:
		// Keep only the least-converged half eligible this round; the
		// parked half re-enters as survivors finish (eligibility is
		// recomputed from scratch every round).
		scored := s.sortByScore(eligible, round)
		half := (len(scored) + 1) / 2
		scored = scored[:half]
		return scored[:min(s.cfg.Parallel, len(scored))]
	default: // PolicyUCB
		scored := s.sortByScore(eligible, round)
		return scored[:min(s.cfg.Parallel, len(scored))]
	}
}

// sortByScore orders cell indices by descending policy score, ties broken
// by ascending index (stable and deterministic: +Inf scores compare equal
// and fall back to grid order).
func (s *Scheduler) sortByScore(idx []int, round int) []int {
	type sc struct {
		i     int
		score float64
	}
	scored := make([]sc, len(idx))
	for j, i := range idx {
		scored[j] = sc{i, s.score(i, round)}
	}
	sort.SliceStable(scored, func(a, b int) bool {
		if scored[a].score != scored[b].score {
			return scored[a].score > scored[b].score
		}
		return scored[a].i < scored[b].i
	})
	out := make([]int, len(scored))
	for j, e := range scored {
		out[j] = e.i
	}
	return out
}

// Run drives the schedule to completion: all cells done, the budget
// exhausted, or a cell error (first in allocation order wins — typically
// the interrupt of a cancelled context). The returned Ledger is always
// complete for what ran; on error the caller assembles its partial outcome
// from the cells it handed in.
func (s *Scheduler) Run(ctx context.Context) (*Ledger, error) {
	defer s.finalize()
	if s.cfg.Runs <= 0 {
		return s.ledger, s.drain(ctx)
	}
	for round := 1; ; round++ {
		if s.remaining() == 0 {
			s.markExhausted()
			return s.ledger, nil
		}
		picked := s.pick(round)
		if len(picked) == 0 {
			return s.ledger, nil // every cell converged
		}
		// Truncate batch grants to the remaining budget in pick order.
		grants := make([]int, 0, len(picked))
		cells := make([]int, 0, len(picked))
		left := s.remaining()
		for _, i := range picked {
			if left == 0 {
				break
			}
			n := min(s.cfg.BatchRuns, left)
			left -= n
			grants = append(grants, n)
			cells = append(cells, i)
		}
		ran, errs := s.dispatch(ctx, cells, grants)
		// Account the round: spent counts attempted runs, and unconsumed
		// grants (rule stopped mid-batch) return to the pool.
		for j, i := range cells {
			s.granted[i] += ran[j]
			s.ledger.Spent += ran[j]
			s.urgency[i] = s.cells[i].Progress().Urgency()
			s.ledger.Allocations = append(s.ledger.Allocations, Allocation{
				Round: round, Cell: s.cells[i].Key(), Runs: grants[j], Ran: ran[j],
			})
			obs.Emit(s.cfg.Tracer, obs.EventBudgetAllocate, map[string]any{
				"cell":    s.cells[i].Key(),
				"runs":    grants[j],
				"ran":     ran[j],
				"round":   round,
				"policy":  string(s.cfg.Policy),
				"urgency": finiteOr(s.urgency[i], -1),
				"spent":   s.ledger.Spent,
				"budget":  s.cfg.Runs,
			})
			if s.cfg.Registry != nil {
				s.cfg.Registry.Gauge("sharp_budget_cell_urgency",
					"Last convergence urgency of a sweep cell (-1 unevaluated).",
					"cell", s.cells[i].Key()).Set(finiteOr(s.urgency[i], -1))
				s.cfg.Registry.Gauge("sharp_budget_cell_runs",
					"Runs granted to a sweep cell by the budget scheduler.",
					"cell", s.cells[i].Key()).Set(float64(s.granted[i]))
			}
		}
		if s.cfg.Registry != nil {
			s.cfg.Registry.Gauge("sharp_budget_spent",
				"Total runs consumed by the budget scheduler.").Set(float64(s.ledger.Spent))
		}
		for _, err := range errs {
			if err != nil {
				return s.ledger, err
			}
		}
	}
}

// dispatch steps the picked cells, concurrently when Parallel > 1. The
// barrier (all batches complete before return) is what keeps scheduling
// decisions deterministic under parallelism. Results are indexed by pick
// order.
func (s *Scheduler) dispatch(ctx context.Context, cells, grants []int) (ran []int, errs []error) {
	ran = make([]int, len(cells))
	errs = make([]error, len(cells))
	if s.cfg.Parallel <= 1 || len(cells) == 1 {
		for j, i := range cells {
			ran[j], errs[j] = s.cells[i].Step(ctx, grants[j])
		}
		return ran, errs
	}
	var wg sync.WaitGroup
	for j := range cells {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ran[j], errs[j] = s.cells[cells[j]].Step(ctx, grants[j])
		}(j)
	}
	wg.Wait()
	return ran, errs
}

// drain drives every cell to completion without rounds or picks: each of
// up to Parallel workers claims the next cell in canonical order and steps
// it to the end.
func (s *Scheduler) drain(ctx context.Context) error {
	err := Each(len(s.cells), s.cfg.Parallel, func(i int) (err error) {
		s.granted[i], err = s.cells[i].Step(ctx, math.MaxInt)
		return err
	})
	for _, ran := range s.granted {
		s.ledger.Spent += ran
	}
	return err
}

// Each calls fn(i) for every i in [0, n) on up to workers goroutines,
// which claim indices in ascending order. After an error no further index
// is claimed, and the error of the lowest failed index is returned.
func Each(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// markExhausted flags budget exhaustion and emits the event once.
func (s *Scheduler) markExhausted() {
	done := 0
	for _, c := range s.cells {
		if c.Done() {
			done++
		}
	}
	if done == len(s.cells) {
		return // nothing was starved; the budget just happened to match
	}
	s.ledger.Exhausted = true
	obs.Emit(s.cfg.Tracer, obs.EventBudgetExhausted, map[string]any{
		"policy":      string(s.cfg.Policy),
		"spent":       s.ledger.Spent,
		"budget":      s.cfg.Runs,
		"cells_done":  done,
		"cells_total": len(s.cells),
	})
}

// finalize fills the per-cell states of the ledger in canonical cell order.
func (s *Scheduler) finalize() {
	s.ledger.Cells = make([]CellState, len(s.cells))
	for i, c := range s.cells {
		s.ledger.Cells[i] = CellState{
			Key:     c.Key(),
			Runs:    s.granted[i],
			Done:    c.Done(),
			Urgency: finiteOr(c.Progress().Urgency(), -1),
		}
	}
}

// finiteOr replaces a non-finite value (the +Inf of an unevaluated cell)
// with the sentinel, keeping ledgers JSON-marshalable.
func finiteOr(v, sentinel float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return sentinel
	}
	return v
}
