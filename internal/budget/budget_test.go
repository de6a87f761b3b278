package budget

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"sharp/internal/stopping"
)

// fakeCell converges after need runs; its urgency is the remaining
// fraction, scaled by weight so tests can make cells unequally needy.
type fakeCell struct {
	key    string
	need   int
	weight float64
	runs   int
	grants []int
}

func (c *fakeCell) Key() string { return c.key }

func (c *fakeCell) Done() bool { return c.runs >= c.need }

func (c *fakeCell) Progress() stopping.Progress {
	if c.runs == 0 {
		return stopping.Progress{N: 0} // unevaluated: +Inf urgency
	}
	remaining := float64(c.need-c.runs) / float64(c.need)
	if remaining < 0 {
		remaining = 0
	}
	// Descending statistic toward threshold 1: urgency = stat/threshold.
	return stopping.Progress{
		N: c.runs, Done: c.Done(),
		Statistic: c.weight * remaining, Threshold: 1, HasEval: true,
	}
}

func (c *fakeCell) Step(_ context.Context, n int) (int, error) {
	if c.Done() {
		return 0, nil
	}
	if left := c.need - c.runs; n > left {
		n = left // rule stops mid-batch; surplus returns to the pool
	}
	c.runs += n
	c.grants = append(c.grants, n)
	return n, nil
}

func cells(fcs ...*fakeCell) []Cell {
	out := make([]Cell, len(fcs))
	for i, c := range fcs {
		out[i] = c
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"": PolicyUCB, "rr": PolicyRoundRobin, "ucb": PolicyUCB, "halving": PolicyHalving} {
		p, err := ParsePolicy(s)
		if err != nil || p != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePolicy("greedy"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestUnlimitedDrivesAllCells: budget 0 = every cell runs to completion.
func TestUnlimitedDrivesAllCells(t *testing.T) {
	a := &fakeCell{key: "a", need: 25, weight: 1}
	b := &fakeCell{key: "b", need: 40, weight: 1}
	s := New(Config{Runs: 0, Policy: PolicyUCB, BatchRuns: 10}, cells(a, b))
	lg, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Done() || !b.Done() {
		t.Fatalf("cells not driven to completion: a=%d/%d b=%d/%d", a.runs, a.need, b.runs, b.need)
	}
	if lg.Spent != 65 {
		t.Fatalf("spent = %d, want 65 (surplus grants returned)", lg.Spent)
	}
	if lg.Exhausted {
		t.Fatal("unlimited budget marked exhausted")
	}
	for _, cs := range lg.Cells {
		if !cs.Done || cs.Urgency != 0 {
			t.Fatalf("final cell state %+v, want done at urgency 0", cs)
		}
	}
}

// TestUnlimitedDrainHasNoRounds: without a cap each cell is stepped once,
// to completion, by one of Parallel workers, and no allocation is logged.
// A cell error stops the drain and surfaces with the ledger finalized.
func TestUnlimitedDrainHasNoRounds(t *testing.T) {
	for _, par := range []int{1, 3} {
		fcs := []*fakeCell{
			{key: "a", need: 25, weight: 1}, {key: "b", need: 40, weight: 9},
			{key: "c", need: 7, weight: 2}, {key: "d", need: 31, weight: 5},
		}
		lg, err := New(Config{Parallel: par}, cells(fcs...)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(lg.Allocations) != 0 || lg.Spent != 103 {
			t.Fatalf("p%d: %d allocations, spent %d; want none and 103", par, len(lg.Allocations), lg.Spent)
		}
		for i, c := range fcs {
			if len(c.grants) != 1 || c.grants[0] != c.need || lg.Cells[i].Runs != c.need || !lg.Cells[i].Done {
				t.Fatalf("p%d: cell %s grants %v, ledger %+v; want one step of %d", par, c.key, c.grants, lg.Cells[i], c.need)
			}
		}
	}
	boom := errors.New("boom")
	a := &errCell{fakeCell: fakeCell{key: "a", need: 30, weight: 1}, err: boom}
	b := &fakeCell{key: "b", need: 30, weight: 1}
	lg, err := New(Config{}, []Cell{a, b}).Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if b.runs != 0 || lg.Spent != 1 || len(lg.Cells) != 2 {
		t.Fatalf("after a failed cell: b ran %d, spent %d, %d ledger cells; want 0, 1, 2", b.runs, lg.Spent, len(lg.Cells))
	}
}

// TestBudgetCapRespected: spending never exceeds the cap, exhaustion is
// flagged, and allocations record what actually ran.
func TestBudgetCapRespected(t *testing.T) {
	a := &fakeCell{key: "a", need: 100, weight: 1}
	b := &fakeCell{key: "b", need: 100, weight: 1}
	s := New(Config{Runs: 35, Policy: PolicyRoundRobin, BatchRuns: 10}, cells(a, b))
	lg, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lg.Spent != 35 {
		t.Fatalf("spent = %d, want exactly 35", lg.Spent)
	}
	if !lg.Exhausted {
		t.Fatal("exhaustion not flagged")
	}
	total := 0
	for _, al := range lg.Allocations {
		total += al.Ran
		if al.Ran > al.Runs {
			t.Fatalf("allocation %+v ran more than granted", al)
		}
	}
	if total != 35 {
		t.Fatalf("allocations sum to %d, want 35", total)
	}
	// The truncated final batch goes to one cell: 10+10+10+5.
	if a.runs+b.runs != 35 {
		t.Fatalf("cells consumed %d", a.runs+b.runs)
	}
}

// TestRoundRobinRotates: rr serves unfinished cells uniformly in index
// order regardless of urgency.
func TestRoundRobinRotates(t *testing.T) {
	a := &fakeCell{key: "a", need: 30, weight: 9}
	b := &fakeCell{key: "b", need: 30, weight: 1}
	c := &fakeCell{key: "c", need: 30, weight: 5}
	s := New(Config{Runs: 90, Policy: PolicyRoundRobin, BatchRuns: 10}, cells(a, b, c))
	lg, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, al := range lg.Allocations {
		order = append(order, al.Cell)
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("allocations = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("allocation order = %v, want strict rotation %v", order, want)
		}
	}
}

// TestUCBFavorsUrgent: with equal coverage, the needier cell receives more
// of a constrained budget.
func TestUCBFavorsUrgent(t *testing.T) {
	needy := &fakeCell{key: "needy", need: 200, weight: 10}
	calm := &fakeCell{key: "calm", need: 200, weight: 1}
	s := New(Config{Runs: 100, Policy: PolicyUCB, BatchRuns: 10}, cells(calm, needy))
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if needy.runs <= calm.runs {
		t.Fatalf("needy=%d calm=%d: UCB did not favor the urgent cell", needy.runs, calm.runs)
	}
	if calm.runs == 0 {
		t.Fatal("UCB starved the calm cell completely (no exploration)")
	}
}

// TestHalvingParksConvergedHalf: the most-converged half is ineligible each
// round but re-enters once survivors finish.
func TestHalvingParksConvergedHalf(t *testing.T) {
	fast := &fakeCell{key: "fast", need: 20, weight: 1}
	slow := &fakeCell{key: "slow", need: 60, weight: 10}
	fast.runs, slow.runs = 5, 5 // both evaluated: ranking is by urgency, not index
	// A budget that never binds: rounds run, but nothing is starved.
	s := New(Config{Runs: 1_000_000, Policy: PolicyHalving, BatchRuns: 10}, cells(fast, slow))
	lg, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Done() || !slow.Done() {
		t.Fatal("halving must still finish every cell under a budget that never binds")
	}
	// First allocations go to the urgent (slow) cell; fast re-enters after.
	if lg.Allocations[0].Cell != "slow" {
		t.Fatalf("first allocation to %s, want slow", lg.Allocations[0].Cell)
	}
}

// TestDeterministicLedger: identical configs produce byte-identical
// ledgers, sequential or parallel.
func TestDeterministicLedger(t *testing.T) {
	mk := func(par int) *Ledger {
		a := &fakeCell{key: "a", need: 37, weight: 3}
		b := &fakeCell{key: "b", need: 53, weight: 1}
		c := &fakeCell{key: "c", need: 11, weight: 7}
		s := New(Config{Runs: 80, Policy: PolicyUCB, BatchRuns: 10, Parallel: par}, cells(a, b, c))
		lg, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return lg
	}
	for _, par := range []int{1, 3} {
		x, _ := json.Marshal(mk(par))
		y, _ := json.Marshal(mk(par))
		if !bytes.Equal(x, y) {
			t.Fatalf("parallel=%d: ledgers diverged:\n%s\nvs\n%s", par, x, y)
		}
	}
}

// TestSpentSeedResumesBudget: a resumed scheduler only spends what is left.
func TestSpentSeedResumesBudget(t *testing.T) {
	a := &fakeCell{key: "a", need: 100, weight: 1}
	s := New(Config{Runs: 50, Spent: 30, Policy: PolicyRoundRobin, BatchRuns: 10}, cells(a))
	lg, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.runs != 20 || lg.Spent != 50 {
		t.Fatalf("resumed scheduler ran %d (spent %d), want 20 more runs", a.runs, lg.Spent)
	}
}

// errCell fails its first Step.
type errCell struct {
	fakeCell
	err error
}

func (c *errCell) Step(ctx context.Context, n int) (int, error) {
	if c.runs == 0 {
		c.runs = 1
		return 1, c.err
	}
	return c.fakeCell.Step(ctx, n)
}

// TestStepErrorPropagates: a cell error aborts scheduling with the ledger
// intact.
func TestStepErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	a := &fakeCell{key: "a", need: 30, weight: 1}
	b := &errCell{fakeCell: fakeCell{key: "b", need: 30, weight: 5}, err: boom}
	s := New(Config{Runs: 100, Policy: PolicyUCB, BatchRuns: 10}, []Cell{a, b})
	lg, err := s.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if lg == nil || len(lg.Cells) != 2 {
		t.Fatalf("ledger not finalized on error: %+v", lg)
	}
}

// TestLedgerRoundTrip: Save/LoadLedger are inverse, including the
// non-finite urgency sentinel.
func TestLedgerRoundTrip(t *testing.T) {
	lg := &Ledger{
		Policy: PolicyHalving, Budget: 120, BatchRuns: 10, Spent: 60, Exhausted: true,
		Cells:       []CellState{{Key: "x", Runs: 40, Done: true, Urgency: 0}, {Key: "y", Runs: 20, Urgency: -1}},
		Allocations: []Allocation{{Round: 1, Cell: "x", Runs: 10, Ran: 10}},
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := lg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := json.Marshal(lg)
	y, _ := json.Marshal(got)
	if !bytes.Equal(x, y) {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", x, y)
	}
	if _, err := LoadLedger(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing ledger loaded")
	}
}

// TestUnevaluatedCellsExploredFirst: +Inf urgency (no convergence check
// yet) outranks any finite urgency under both adaptive policies.
func TestUnevaluatedCellsExploredFirst(t *testing.T) {
	for _, policy := range []Policy{PolicyUCB, PolicyHalving} {
		started := &fakeCell{key: "started", need: 100, weight: 100}
		started.runs = 10 // already evaluated, very urgent but finite
		fresh := &fakeCell{key: "fresh", need: 100, weight: 1}
		s := New(Config{Runs: 10, Policy: policy, BatchRuns: 10}, cells(started, fresh))
		lg, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if lg.Allocations[0].Cell != "fresh" {
			t.Fatalf("%s: first allocation to %s, want the unevaluated cell", policy, lg.Allocations[0].Cell)
		}
		if math.IsInf(lg.Cells[1].Urgency, 0) {
			t.Fatalf("%s: ledger carries non-finite urgency", policy)
		}
	}
}
