package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/stopping"
)

// pinnedLauncher returns a launcher with a fixed clock so rows from
// independently executed campaigns are comparable field for field.
func pinnedLauncher() *Launcher {
	fixed := time.Unix(1700000000, 0).UTC()
	return &Launcher{Clock: func() time.Time { return fixed }}
}

// stepExperiment builds a fresh experiment (rules are stateful; every
// execution needs its own).
func stepExperiment(t *testing.T, rule stopping.Rule) Experiment {
	t.Helper()
	return Experiment{
		Name:     "step-test",
		Workload: "hotspot",
		Backend:  simBackend(t, "machine1"),
		Rule:     rule,
		Day:      1,
		Seed:     42,
	}
}

// TestStepperMatchesRun is the equivalence pin: a campaign driven to rule
// completion through any sequence of Step batch sizes, sequential or
// parallel, produces the same samples, rows, runs and stop reason as a
// sequential Run.
func TestStepperMatchesRun(t *testing.T) {
	mkRule := func() stopping.Rule { return stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 400}) }
	want, err := pinnedLauncher().Run(context.Background(), stepExperiment(t, mkRule()))
	if err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{1, 4} {
		for _, batches := range [][]int{{1}, {7}, {10}, {3, 10, 1, 25}} {
			e := stepExperiment(t, mkRule())
			e.Parallel = parallel
			st, err := pinnedLauncher().NewStepper(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; !st.Done(); i++ {
				n := batches[i%len(batches)]
				ran, err := st.Step(context.Background(), n)
				if err != nil {
					t.Fatal(err)
				}
				if ran > n {
					t.Fatalf("parallel %d: Step(%d) ran %d", parallel, n, ran)
				}
			}
			got := st.Finish("")
			if got.Runs != want.Runs || got.StopReason != want.StopReason {
				t.Fatalf("parallel %d, batches %v: runs/reason = %d/%q, want %d/%q",
					parallel, batches, got.Runs, got.StopReason, want.Runs, want.StopReason)
			}
			if !reflect.DeepEqual(got.Samples, want.Samples) {
				t.Fatalf("parallel %d, batches %v: samples diverged", parallel, batches)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("parallel %d, batches %v: rows diverged", parallel, batches)
			}
		}
	}
}

// TestStepperBudgetStops checks a stepper halted before convergence
// finalizes a partial result with the caller's reason.
func TestStepperBudgetStops(t *testing.T) {
	st, err := pinnedLauncher().NewStepper(context.Background(),
		stepExperiment(t, stopping.NewKS(0.001, stopping.Bounds{MaxSamples: 500})))
	if err != nil {
		t.Fatal(err)
	}
	ran, err := st.Step(context.Background(), 25)
	if err != nil || ran != 25 {
		t.Fatalf("Step = %d, %v", ran, err)
	}
	if st.Done() {
		t.Fatal("rule converged unexpectedly early")
	}
	p := st.Progress()
	if p.Done || !p.HasEval || p.N != 25 || p.Urgency() <= 0 {
		t.Fatalf("progress = %+v (urgency %v)", p, p.Urgency())
	}
	res := st.Finish("run budget exhausted")
	if res.Runs != 25 || len(res.Samples) != 25 {
		t.Fatalf("partial result: runs=%d samples=%d", res.Runs, len(res.Samples))
	}
	if res.StopReason != "run budget exhausted after run 25" {
		t.Fatalf("stop reason = %q", res.StopReason)
	}
	// Finish is idempotent and further Steps are refused... (a second
	// Finish returns the same result).
	if st.Finish("other") != res {
		t.Fatal("second Finish returned a different result")
	}
}

// TestStepperInterrupt checks cancellation finalizes a resumable partial
// result at the last merged run, mirroring Run's contract.
func TestStepperInterrupt(t *testing.T) {
	st, err := pinnedLauncher().NewStepper(context.Background(),
		stepExperiment(t, stopping.NewKS(0.001, stopping.Bounds{MaxSamples: 500})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(context.Background(), 12); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = st.Step(ctx, 10)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error = %v, want ErrInterrupted", err)
	}
	res := st.Finish("")
	if res.Runs != 12 || len(res.Samples) != 12 {
		t.Fatalf("checkpoint at runs=%d samples=%d, want 12", res.Runs, len(res.Samples))
	}
	if _, err := st.Step(context.Background(), 1); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("stepping a terminal stepper: %v", err)
	}
}

// TestStepperFailureBudget checks a dead backend terminates the stepper
// with ErrFailureBudget and a finalized partial result — failures are data.
func TestStepperFailureBudget(t *testing.T) {
	e := stepExperiment(t, stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 500}))
	e.Backend = backend.NewChaos(e.Backend, backend.ChaosConfig{ErrorRate: 1, Seed: 7})
	st, err := pinnedLauncher().NewStepper(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var stepErr error
	for i := 0; i < 10 && stepErr == nil; i++ {
		var ran int
		ran, stepErr = st.Step(context.Background(), 5)
		total += ran
	}
	if !errors.Is(stepErr, ErrFailureBudget) {
		t.Fatalf("error = %v, want ErrFailureBudget", stepErr)
	}
	if !st.Done() {
		t.Fatal("failure-budget stepper not done")
	}
	res := st.Finish("")
	if res.FailedRuns != total || res.Runs != total {
		t.Fatalf("failed=%d runs=%d, want %d attempted runs recorded", res.FailedRuns, res.Runs, total)
	}
}

// TestOnProgressCallback checks the launcher publishes a rule snapshot per
// merged observation, from both execution paths.
func TestOnProgressCallback(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		l := pinnedLauncher()
		var got []stopping.Progress
		l.OnProgress = func(p stopping.Progress) { got = append(got, p) }
		e := stepExperiment(t, stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 400}))
		e.Parallel = parallel
		res, err := l.Run(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(res.Samples) {
			t.Fatalf("parallel=%d: %d progress callbacks for %d samples", parallel, len(got), len(res.Samples))
		}
		last := got[len(got)-1]
		if !last.Done || last.N != res.Runs {
			t.Fatalf("parallel=%d: final snapshot = %+v", parallel, last)
		}
	}
}

// TestStepperSinkErrorFinalizes checks a row sink refusing a run aborts the
// stepper with a finalized result that ends at the last run the sink took,
// as Finish documents for every terminal Step error.
func TestStepperSinkErrorFinalizes(t *testing.T) {
	l := pinnedLauncher()
	sink := &failingSink{n: 5}
	l.Log = sink
	st, err := l.NewStepper(context.Background(),
		stepExperiment(t, stopping.NewFixed(40)))
	if err != nil {
		t.Fatal(err)
	}
	ran, err := st.Step(context.Background(), 100)
	if err == nil || !strings.Contains(err.Error(), "row sink") {
		t.Fatalf("error = %v, want a row-sink error", err)
	}
	if ran != 6 || !st.Done() {
		t.Fatalf("ran %d runs, done %v; want the refused sixth run attempted and the stepper done", ran, st.Done())
	}
	res := st.Finish("")
	if res.Runs != 5 || len(res.Samples) != 5 || len(res.Rows) != len(sink.rows) {
		t.Fatalf("result runs=%d samples=%d rows=%d, want 5, 5 and the sink's %d", res.Runs, len(res.Samples), len(res.Rows), len(sink.rows))
	}
	if !strings.HasPrefix(res.StopReason, "aborted after run 5") || res.Finished.IsZero() {
		t.Fatalf("stop reason %q, finished %v; want a finalized abort", res.StopReason, res.Finished)
	}
	if _, again := st.Step(context.Background(), 1); !errors.Is(again, err) {
		t.Fatalf("stepping an aborted stepper: %v, want %v", again, err)
	}
}

// TestSequentialCampaignAllocs bounds the garbage of a sequential campaign
// on the Sim: per run, the backend's invocation slice and metrics map (three
// objects) and nothing of the launcher's own beyond amortized growth. An
// adaptive campaign reserves its rows once, at its rule's cap.
func TestSequentialCampaignAllocs(t *testing.T) {
	const maxSamples = 4000
	m := simBackend(t, "machine1").Machine
	for _, tc := range []struct {
		name, workload string
		rule           func() stopping.Rule
	}{
		{"fixed", "bfs", func() stopping.Rule { return stopping.NewFixed(1000) }},
		{"ks", "hotspot", func() stopping.Rule { return stopping.NewKS(0.02, stopping.Bounds{MaxSamples: maxSamples}) }},
	} {
		var res *Result
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			res, err = NewLauncher().Run(context.Background(), Experiment{
				Workload: tc.workload,
				Backend:  backend.NewSim(m, 7),
				Rule:     tc.rule(),
				Seed:     7,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if perRun := allocs / float64(res.Runs); perRun > 3.1 {
			t.Errorf("%s: %.0f allocations over %d runs, %.2f per run; want at most 3.1", tc.name, allocs, res.Runs, perRun)
		}
		if tc.name == "ks" && (res.Runs >= maxSamples || cap(res.Rows) != maxSamples) {
			t.Errorf("ks: %d runs, %d rows in a capacity of %d; want a campaign stopped before its cap with rows reserved to it",
				res.Runs, len(res.Rows), cap(res.Rows))
		}
	}
}
