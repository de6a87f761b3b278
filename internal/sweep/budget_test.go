package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/obs"
)

// tracerFunc adapts a function to obs.Tracer.
type tracerFunc func(typ string, fields map[string]any)

func (f tracerFunc) Emit(typ string, fields map[string]any) { f(typ, fields) }

// pinClock fixes the design's time source so logs from independently
// executed sweeps are byte-comparable (timestamps are data rows carry).
func pinClock(d *Design) {
	fixed := time.Unix(1700000000, 0).UTC()
	d.clock = func() time.Time { return fixed }
}

// outcomeCSV renders the combined tidy log to bytes.
func outcomeCSV(t *testing.T, o *Outcome) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := o.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mustMatch asserts two outcomes are identical: cell order, runs, stop
// reasons, samples, and the full tidy log byte for byte.
func mustMatch(t *testing.T, want, got *Outcome) {
	t.Helper()
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count diverged: %d vs %d", len(want.Cells), len(got.Cells))
	}
	for i := range want.Cells {
		a, b := want.Cells[i], got.Cells[i]
		if a.Key() != b.Key() {
			t.Fatalf("cell %d order diverged: %s vs %s", i, a.Key(), b.Key())
		}
		if a.Result.Runs != b.Result.Runs {
			t.Fatalf("%s: runs diverged: %d vs %d", a.Key(), a.Result.Runs, b.Result.Runs)
		}
		if a.Result.StopReason != b.Result.StopReason {
			t.Fatalf("%s: stop reason diverged: %q vs %q", a.Key(), a.Result.StopReason, b.Result.StopReason)
		}
		if len(a.Result.Samples) != len(b.Result.Samples) {
			t.Fatalf("%s: sample count diverged", a.Key())
		}
		for j := range a.Result.Samples {
			if a.Result.Samples[j] != b.Result.Samples[j] {
				t.Fatalf("%s: sample %d diverged", a.Key(), j)
			}
		}
	}
	if !bytes.Equal(outcomeCSV(t, want), outcomeCSV(t, got)) {
		t.Fatal("tidy logs are not byte-identical")
	}
}

// oracle measures the design the plain way: each cell run alone by
// core.Launcher.Run, in canonical order, with no scheduler or cache.
func oracle(t *testing.T, d Design) *Outcome {
	t.Helper()
	d, err := d.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := d.plans()
	if err != nil {
		t.Fatal(err)
	}
	out := &Outcome{Design: d}
	for _, p := range plans {
		e, err := p.Experiment(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.newLauncher().Run(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		out.Cells = append(out.Cells, Cell{
			Workload: p.Workload, Machine: p.Backend.Machine,
			Day: p.Day, Concurrency: p.Concurrency, Result: res,
		})
	}
	return out
}

// TestBudgetZeroMatchesExhaustive guards the uncapped sweep against an
// independent oracle (every cell run alone, in canonical order) across
// rules x sequential/parallel x cache on/off. A finite budget that never
// binds takes the scheduler's rounds instead of its drain, and must give
// the same bytes too.
func TestBudgetZeroMatchesExhaustive(t *testing.T) {
	rules := []struct {
		name      string
		threshold float64
	}{
		{"fixed", 40},
		{"ks", 0.1},
		{"ci", 0.05},
	}
	for _, rule := range rules {
		for _, par := range []int{1, 4} {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p%d/cache=%v", rule.name, par, cached), func(t *testing.T) {
					base := smallDesign()
					base.RuleName, base.Threshold = rule.name, rule.threshold
					base.Parallel = par
					pinClock(&base)
					want := oracle(t, base)
					runs := 0
					for _, c := range want.Cells {
						runs += c.Result.Runs
					}

					for _, budgetRuns := range []int{0, 1_000_000} {
						d := base
						d.Budget = budgetRuns
						if cached {
							d.CacheDir = t.TempDir()
						}
						got, err := Run(context.Background(), d)
						if err != nil {
							t.Fatal(err)
						}
						mustMatch(t, want, got)
						if lg := got.Budget; lg == nil || lg.Exhausted || lg.Spent != runs {
							t.Fatalf("budget %d: ledger = %+v, want %d runs spent, unexhausted", budgetRuns, lg, runs)
						}
						if !cached {
							continue
						}
						// A warm re-run replays every cell for zero budget,
						// byte-identical again.
						again, err := Run(context.Background(), d)
						if err != nil {
							t.Fatal(err)
						}
						mustMatch(t, want, again)
						if again.Budget.Spent != 0 {
							t.Fatalf("warm run spent %d runs, want 0 (all cells cached)", again.Budget.Spent)
						}
					}
				})
			}
		}
	}
}

// TestBudgetAllocationDeterministic pins the determinism contract: same
// seed + same budget => byte-identical allocation ledger and results, for
// every policy, sequential and parallel.
func TestBudgetAllocationDeterministic(t *testing.T) {
	for _, policy := range []string{"ucb", "halving", "rr"} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", policy, par), func(t *testing.T) {
				d := smallDesign()
				d.RuleName, d.Threshold = "ci", 0.02
				d.Budget = 160
				d.BudgetPolicy = policy
				d.Parallel = par
				pinClock(&d)

				a, err := Run(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Run(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				la, err := json.Marshal(a.Budget)
				if err != nil {
					t.Fatal(err)
				}
				lb, err := json.Marshal(b.Budget)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(la, lb) {
					t.Fatalf("allocation ledgers diverged:\n%s\nvs\n%s", la, lb)
				}
				mustMatch(t, a, b)
				if a.Budget.Spent > d.Budget {
					t.Fatalf("spent %d > budget %d", a.Budget.Spent, d.Budget)
				}
			})
		}
	}
}

// TestUCBNarrowerThanRoundRobin is the adaptive-advantage acceptance
// criterion: for a fixed budget below the exhaustive cost, UCB allocation
// must yield a strictly narrower mean CI width across cells than uniform
// round-robin of the same budget.
func TestUCBNarrowerThanRoundRobin(t *testing.T) {
	base := smallDesign()
	base.RuleName, base.Threshold = "ci", 0.002 // tight: no cell converges in budget
	base.MaxRuns = 1000
	base.Budget = 320 // 8 cells, 40 runs average
	pinClock(&base)

	run := func(policy string) *Outcome {
		d := base
		d.BudgetPolicy = policy
		out, err := Run(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if out.Budget.Spent != d.Budget {
			t.Fatalf("%s spent %d, want full budget %d", policy, out.Budget.Spent, d.Budget)
		}
		return out
	}
	ucb := run("ucb").MeanCIWidth(0.95)
	rr := run("rr").MeanCIWidth(0.95)
	if math.IsInf(ucb, 0) || math.IsInf(rr, 0) {
		t.Fatalf("CI widths must be finite: ucb=%v rr=%v", ucb, rr)
	}
	if ucb >= rr {
		t.Fatalf("ucb mean CI width %.6f not narrower than round-robin %.6f", ucb, rr)
	}
	t.Logf("mean CI width: ucb=%.6f rr=%.6f (gain %.2fx)", ucb, rr, rr/ucb)
}

// TestCorruptedCacheEntryDegradesToMiss is the satellite regression: a
// damaged commit-point JSON must degrade to a miss and a fresh measurement,
// not abort the sweep — uncapped and under a cap that never binds.
func TestCorruptedCacheEntryDegradesToMiss(t *testing.T) {
	d := smallDesign()
	pinClock(&d)
	d.CacheDir = t.TempDir()
	want, err := Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, budgetRuns := range []int{0, 1_000_000} {
		// Corrupt one entry's meta JSON (the commit point Get cannot
		// self-heal).
		metas, err := filepath.Glob(filepath.Join(d.CacheDir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		corrupted := 0
		for _, m := range metas {
			if filepath.Base(m) == "counters.json" {
				continue
			}
			if err := os.WriteFile(m, []byte("{definitely not json"), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted++
			break
		}
		if corrupted == 0 {
			t.Fatal("no cache entry meta found to corrupt")
		}
		d.Budget = budgetRuns
		got, err := Run(context.Background(), d)
		if err != nil {
			t.Fatalf("budget %d: sweep aborted on damaged cache entry: %v", budgetRuns, err)
		}
		mustMatch(t, want, got)
		if got.Budget.Spent == 0 {
			t.Fatalf("budget %d: the damaged cell was not re-measured", budgetRuns)
		}
	}
}

// TestChaosKilledCellsYieldTypedError is the satellite regression: cells
// whose every run failed must surface ErrNoSamples from the effect
// analyses, not NaN-poisoned summaries — and the sweep itself completes
// (failure rows are data).
func TestChaosKilledCellsYieldTypedError(t *testing.T) {
	d := smallDesign()
	d.Workloads = []string{"bfs"}
	d.Machines = []string{"machine1"}
	d.Days = []int{1}
	d.Chaos = &backend.ChaosConfig{ErrorRate: 1, Seed: 9}
	out, err := Run(context.Background(), d)
	if err != nil {
		t.Fatalf("sweep must absorb a failure-budget cell, got %v", err)
	}
	if len(out.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(out.Cells))
	}
	res := out.Cells[0].Result
	if res.FailedRuns == 0 || len(res.Samples) != 0 {
		t.Fatalf("chaos cell: failed=%d samples=%d, want all-failed", res.FailedRuns, len(res.Samples))
	}
	if _, err := out.EffectOf("workload"); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("EffectOf error = %v, want ErrNoSamples", err)
	}

	// The budgeted scheduler also treats the dead cell as terminal instead
	// of feeding it the whole budget.
	bd := d
	bd.Budget = 200
	bout, err := Run(context.Background(), bd)
	if err != nil {
		t.Fatalf("budgeted sweep must absorb a failure-budget cell, got %v", err)
	}
	if bout.Budget.Spent >= bd.Budget {
		t.Fatalf("dead cell consumed the whole budget (%d)", bout.Budget.Spent)
	}
	if _, err := bout.EffectOf("workload"); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("budgeted EffectOf error = %v, want ErrNoSamples", err)
	}
}

// TestEffectOfMarksDeadLevelsInconclusive checks NaN filtering on a mixed
// outcome: live levels summarize finitely, dead ones are Inconclusive.
func TestEffectOfMarksDeadLevelsInconclusive(t *testing.T) {
	cell := func(wl string, samples []float64) Cell {
		return Cell{Workload: wl, Machine: "m", Day: 1, Concurrency: 1,
			Result: &core.Result{Samples: samples}}
	}
	out := &Outcome{Cells: []Cell{
		cell("live", []float64{1, 2, 3, 2}),
		cell("dead", nil),
		cell("nan", []float64{math.NaN(), math.Inf(1)}),
	}}
	eff, err := out.EffectOf("workload")
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(eff.Levels))
	}
	for _, l := range eff.Levels {
		switch l.Level {
		case "live":
			if l.Inconclusive || math.IsNaN(l.Mean) || l.N != 4 {
				t.Errorf("live level = %+v", l)
			}
		default:
			if !l.Inconclusive {
				t.Errorf("%s level not marked inconclusive: %+v", l.Level, l)
			}
			if l.Mean != 0 || l.N != 0 {
				t.Errorf("%s level carries poisoned numbers: %+v", l.Level, l)
			}
		}
	}
}

// TestInterruptedSweepResumesFromCache is the satellite regression for
// cancellation: a mid-sweep interrupt surfaces the completed cells as a
// partial Outcome, and a re-run over the same cache replays them instead of
// re-measuring — ending byte-identical to a never-interrupted sweep. At
// Parallel 4 the interrupt lands mid-drain, with several cells in flight.
func TestInterruptedSweepResumesFromCache(t *testing.T) {
	ref := smallDesign()
	pinClock(&ref)
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			d := smallDesign()
			pinClock(&d)
			d.Parallel = par
			d.CacheDir = t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stops atomic.Int32
			d.Tracer = tracerFunc(func(typ string, _ map[string]any) {
				if typ == obs.EventCampaignStop && stops.Add(1) == 3 {
					cancel()
				}
			})
			part, err := Run(ctx, d)
			if !errors.Is(err, core.ErrInterrupted) {
				t.Fatalf("interrupt error = %v, want ErrInterrupted", err)
			}
			if part == nil || len(part.Cells) == 0 || len(part.Cells) >= len(want.Cells) {
				t.Fatalf("partial outcome has %d cells, want a strict non-empty subset", len(part.Cells))
			}
			// Completed cells keep canonical order; a sequential sweep
			// completes a prefix.
			j := 0
			for i, c := range part.Cells {
				for j < len(want.Cells) && want.Cells[j].Key() != c.Key() {
					j++
				}
				if j == len(want.Cells) || (par == 1 && j != i) {
					t.Fatalf("partial cell %d = %s, want canonical order", i, c.Key())
				}
				if c.Result.StopReason == "" || c.Result.Runs == 0 {
					t.Fatalf("partial cell %s not a completed result: %+v", c.Key(), c.Result)
				}
			}

			d.Tracer = nil
			full, err := Run(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			mustMatch(t, want, full)
			c := cacheCounters(t, d.CacheDir)
			if int(c.Hits) < len(part.Cells) {
				t.Fatalf("resume replayed %d cells, want >= %d (completed cells re-measured)", c.Hits, len(part.Cells))
			}
		})
	}
}

// TestInterruptedBudgetedSweepResumesFromCache mirrors the interrupt
// contract on the scheduler's rounds, under a cap that never binds:
// converged cells survive the interrupt via the cache and the re-run
// completes byte-identical to the uncapped reference.
func TestInterruptedBudgetedSweepResumesFromCache(t *testing.T) {
	ref := smallDesign()
	pinClock(&ref)
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	d := smallDesign()
	pinClock(&d)
	d.Budget = 1_000_000
	d.CacheDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := 0
	d.Tracer = tracerFunc(func(typ string, _ map[string]any) {
		if typ == obs.EventBudgetAllocate {
			// 8 cells x 40 fixed runs / batch 10 = 32 allocations total;
			// cancelling at 28 leaves some cells converged, some not.
			if allocs++; allocs == 28 {
				cancel()
			}
		}
	})
	part, err := Run(ctx, d)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("interrupt error = %v, want ErrInterrupted", err)
	}
	if part == nil || len(part.Cells) == 0 || len(part.Cells) >= len(want.Cells) {
		t.Fatalf("partial outcome has %d cells, want a strict non-empty subset", len(part.Cells))
	}
	for _, c := range part.Cells {
		if c.Result.StopReason == "" || c.Result.Runs == 0 {
			t.Fatalf("partial cell %s not a completed result: %+v", c.Key(), c.Result)
		}
	}

	d.Tracer = nil
	full, err := Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, want, full)
	if int(cacheCounters(t, d.CacheDir).Hits) < len(part.Cells) {
		t.Fatal("converged cells were re-measured instead of replayed")
	}
}
