package core

// Differential determinism tests for batched (parallel) campaign execution: for
// every stopping rule, Launcher.Run with Parallel N > 1 must produce
// byte-identical SaveCSV output, identical samples and an identical
// StopReason to the sequential path — including under chaos fault injection.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/machine"
	"sharp/internal/stopping"
)

// fakeClock is a deterministic time source: every call advances one second,
// so per-run timestamps land in the CSV and any divergence in clock-call
// ordering between the two paths shows up as a byte difference.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

func newFakeLauncher() *Launcher {
	c := &fakeClock{t: time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)}
	return &Launcher{Clock: c.now}
}

// buildExperiment assembles a fresh experiment (fresh backend, fresh rule)
// so sequential and parallel campaigns start from identical state.
func buildExperiment(t *testing.T, ruleName string, parallel int, chaos bool) Experiment {
	t.Helper()
	m, err := machine.ByName("machine1")
	if err != nil {
		t.Fatal(err)
	}
	var b backend.Backend = backend.NewSim(m, 42)
	if chaos {
		b = backend.NewChaos(b, backend.ChaosConfig{
			Seed:        99,
			ErrorRate:   0.08,
			TimeoutRate: 0.04,
			LatencyRate: 0.1,
		})
	}
	rule, err := stopping.NewNamed(ruleName, 0, stopping.Bounds{MaxSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	return Experiment{
		Name:       "det-" + ruleName,
		Workload:   "hotspot",
		Backend:    b,
		Rule:       rule,
		Day:        1,
		Seed:       42,
		WarmupRuns: 2,
		Parallel:   parallel,
	}
}

func runToCSV(t *testing.T, e Experiment, path string) (*Result, error) {
	t.Helper()
	l := newFakeLauncher()
	res, err := l.Run(context.Background(), e)
	if err != nil && !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("%s: %v", e.Name, err)
	}
	if res == nil {
		t.Fatalf("%s: nil result", e.Name)
	}
	if werr := res.SaveCSV(path); werr != nil {
		t.Fatal(werr)
	}
	return res, err
}

func TestParallelRunMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	for _, chaos := range []bool{false, true} {
		for _, ruleName := range stopping.Names() {
			for _, workers := range []int{2, 5, 8} {
				label := fmt.Sprintf("%s/chaos=%v/workers=%d", ruleName, chaos, workers)
				seqCSV := filepath.Join(dir, fmt.Sprintf("seq-%s-%v.csv", ruleName, chaos))
				parCSV := filepath.Join(dir, fmt.Sprintf("par-%s-%v-%d.csv", ruleName, chaos, workers))

				seq, seqErr := runToCSV(t, buildExperiment(t, ruleName, 0, chaos), seqCSV)
				par, parErr := runToCSV(t, buildExperiment(t, ruleName, workers, chaos), parCSV)

				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s: error divergence: seq=%v par=%v", label, seqErr, parErr)
				}
				if seq.StopReason != par.StopReason {
					t.Fatalf("%s: StopReason diverged:\n seq: %s\n par: %s", label, seq.StopReason, par.StopReason)
				}
				if seq.Runs != par.Runs || seq.FailedRuns != par.FailedRuns || seq.Errors != par.Errors {
					t.Fatalf("%s: bookkeeping diverged: runs %d/%d failed %d/%d errors %d/%d",
						label, seq.Runs, par.Runs, seq.FailedRuns, par.FailedRuns, seq.Errors, par.Errors)
				}
				if len(seq.Samples) != len(par.Samples) {
					t.Fatalf("%s: sample count diverged: %d vs %d", label, len(seq.Samples), len(par.Samples))
				}
				for i := range seq.Samples {
					if seq.Samples[i] != par.Samples[i] {
						t.Fatalf("%s: sample %d diverged: %v vs %v", label, i, seq.Samples[i], par.Samples[i])
					}
				}
				a, err := os.ReadFile(seqCSV)
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(parCSV)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Fatalf("%s: CSV bytes diverged (%d vs %d bytes)", label, len(a), len(b))
				}
			}
		}
	}
}

// TestParallelRunFailureBudget verifies the parallel path aborts on the
// failure budget with the same partial result as the sequential path.
func TestParallelRunFailureBudget(t *testing.T) {
	build := func(parallel int) Experiment {
		e := buildExperiment(t, "ks", parallel, false)
		e.Backend = backend.NewChaos(e.Backend, backend.ChaosConfig{
			Seed:      7,
			ErrorRate: 0.9, // hammer the budget
		})
		e.Name = "budget"
		e.WarmupRuns = 0
		return e
	}
	dir := t.TempDir()
	seq, seqErr := runToCSV(t, build(0), filepath.Join(dir, "seq.csv"))
	par, parErr := runToCSV(t, build(6), filepath.Join(dir, "par.csv"))
	if !errors.Is(seqErr, ErrFailureBudget) || !errors.Is(parErr, ErrFailureBudget) {
		t.Fatalf("expected budget errors, got seq=%v par=%v", seqErr, parErr)
	}
	if seq.StopReason != par.StopReason || seq.Runs != par.Runs {
		t.Fatalf("partial results diverged: %q/%d vs %q/%d", seq.StopReason, seq.Runs, par.StopReason, par.Runs)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "seq.csv"))
	b, _ := os.ReadFile(filepath.Join(dir, "par.csv"))
	if string(a) != string(b) {
		t.Fatal("CSV bytes diverged under failure budget abort")
	}
}

// TestParallelRunConcurrencyInstances checks multi-instance runs keep
// per-instance rows ordered and identical.
func TestParallelRunConcurrencyInstances(t *testing.T) {
	build := func(parallel int) Experiment {
		e := buildExperiment(t, "ci", parallel, true)
		e.Concurrency = 3
		e.Name = "conc"
		return e
	}
	dir := t.TempDir()
	seq, _ := runToCSV(t, build(0), filepath.Join(dir, "seq.csv"))
	par, _ := runToCSV(t, build(4), filepath.Join(dir, "par.csv"))
	if seq.StopReason != par.StopReason {
		t.Fatalf("StopReason diverged: %q vs %q", seq.StopReason, par.StopReason)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "seq.csv"))
	b, _ := os.ReadFile(filepath.Join(dir, "par.csv"))
	if string(a) != string(b) {
		t.Fatal("CSV bytes diverged with Concurrency=3")
	}
}
