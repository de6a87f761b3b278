package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/config"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
)

// countingBackend fails the first failFirst invocations of every run, and
// optionally fails every run past dieAfter runs (a backend that degrades).
type countingBackend struct {
	mu        sync.Mutex
	perRun    map[int]int
	failFirst int
	dieAfter  int  // fail all runs with index > dieAfter (0 = never)
	failOdd   bool // fail every odd-indexed run entirely
}

func (b *countingBackend) Name() string { return "counting" }
func (b *countingBackend) Close() error { return nil }
func (b *countingBackend) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	b.mu.Lock()
	if b.perRun == nil {
		b.perRun = map[int]int{}
	}
	b.perRun[req.Run]++
	n := b.perRun[req.Run]
	b.mu.Unlock()
	if b.dieAfter > 0 && req.Run > b.dieAfter {
		return nil, errors.New("backend degraded")
	}
	if b.failOdd && req.Run%2 == 1 {
		return nil, errors.New("odd-run failure")
	}
	if n <= b.failFirst {
		return []backend.Invocation{{Instance: 1, Err: errors.New("flaky"), Metrics: map[string]float64{}}}, nil
	}
	return []backend.Invocation{{Instance: 1, Metrics: map[string]float64{backend.MetricExecTime: 1.0}}}, nil
}

func TestLauncherRecordsFailuresAsRows(t *testing.T) {
	be := &countingBackend{failFirst: 1}
	res, err := NewLauncher().Run(context.Background(), Experiment{
		Workload: "w",
		Backend:  be,
		Rule:     stopping.NewFixed(5),
		Retry:    resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 5 {
		t.Fatalf("samples = %d, want 5 despite flakiness", len(res.Samples))
	}
	// One failed attempt per run, each logged as an error row.
	errorRows := 0
	okRows := 0
	for _, row := range res.Rows {
		switch row.Status {
		case record.StatusError:
			errorRows++
			if row.Metric != record.MetricError || row.Value != 1 || row.Error == "" {
				t.Fatalf("malformed error row: %+v", row)
			}
		case record.StatusOK:
			okRows++
			if row.Attempt != 2 {
				t.Fatalf("ok row attempt = %d, want 2 (one failure + success)", row.Attempt)
			}
		default:
			t.Fatalf("row without status: %+v", row)
		}
	}
	if errorRows != 5 || okRows != 5 {
		t.Fatalf("errorRows = %d okRows = %d, want 5 each", errorRows, okRows)
	}
	if res.Errors != 5 {
		t.Fatalf("res.Errors = %d, want 5", res.Errors)
	}
}

func TestFailureBudgetConsecutive(t *testing.T) {
	be := &countingBackend{dieAfter: 3}
	res, err := NewLauncher().Run(context.Background(), Experiment{
		Workload:      "w",
		Backend:       be,
		Rule:          stopping.NewFixed(100),
		FailureBudget: FailureBudget{MaxConsecutive: 4},
	})
	if !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("err = %v, want ErrFailureBudget", err)
	}
	if res == nil {
		t.Fatal("budget abort dropped the partial result")
	}
	if len(res.Samples) != 3 {
		t.Fatalf("partial samples = %d, want 3", len(res.Samples))
	}
	if res.FailedRuns != 4 {
		t.Fatalf("failed runs = %d, want 4", res.FailedRuns)
	}
	if !strings.Contains(res.StopReason, "failure budget") {
		t.Fatalf("stop reason = %q", res.StopReason)
	}
	// The whole-run failures are recorded as instance-0 rows.
	wholeRun := 0
	for _, row := range res.Rows {
		if row.Status == record.StatusError && row.Instance == 0 {
			wholeRun++
		}
	}
	if wholeRun != 4 {
		t.Fatalf("whole-run failure rows = %d, want 4", wholeRun)
	}
}

func TestFailureBudgetFraction(t *testing.T) {
	// Every run fails at the instance level; with consecutive checking
	// disabled, the fraction check aborts at MinRuns.
	be := &countingBackend{failFirst: 1 << 30}
	_, err := NewLauncher().Run(context.Background(), Experiment{
		Workload:      "w",
		Backend:       be,
		Rule:          stopping.NewFixed(100),
		FailureBudget: FailureBudget{MaxConsecutive: -1, MaxFraction: 0.5, MinRuns: 8},
	})
	if !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "after run 8") {
		t.Fatalf("fraction budget fired at the wrong run: %v", err)
	}
}

func TestFailureBudgetDisabled(t *testing.T) {
	// Half the runs fail — well past the default 50%-after-10 budget — but
	// with both checks disabled, the campaign runs to its stopping rule.
	be := &countingBackend{failOdd: true}
	res, err := NewLauncher().Run(context.Background(), Experiment{
		Workload:      "w",
		Backend:       be,
		Rule:          stopping.NewFixed(20),
		FailureBudget: FailureBudget{MaxConsecutive: -1, MaxFraction: -1},
	})
	if err != nil {
		t.Fatalf("disabled budget aborted: %v", err)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("samples = %d, want 20", len(res.Samples))
	}
	if res.FailedRuns != 20 {
		t.Fatalf("failed runs = %d, want 20 (every odd run)", res.FailedRuns)
	}
}

func TestUnknownWorkloadStillAborts(t *testing.T) {
	b := backend.NewInProcess()
	_, err := NewLauncher().Run(context.Background(), Experiment{
		Workload: "nope",
		Backend:  b,
		Rule:     stopping.NewFixed(3),
	})
	if !errors.Is(err, backend.ErrUnknownWorkload) {
		t.Fatalf("err = %v", err)
	}
}

func TestMetadataRecordsResilience(t *testing.T) {
	be := &countingBackend{failFirst: 1}
	e, err := Spec{
		Name:     "resilient",
		Workload: "w",
		Backend:  BackendSpec{Kind: be.Name()},
		Rule:     stopping.Spec{Kind: "fixed", Threshold: 3},
		Retry:    resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		Seed:     11,
	}.Experiment(be)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewLauncher().Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	md := res.Metadata()
	if want := `"retry":{"max_attempts":3,"base_delay":1000}`; !strings.Contains(md.Get("spec"), want) {
		t.Fatalf("spec = %s, want it to hold %s", md.Get("spec"), want)
	}
	if md.Get("errors") != "3" {
		t.Fatalf("errors = %q", md.Get("errors"))
	}
	// The retry policy must survive the metadata round-trip.
	exp, err := RecreateExperiment(md, map[string]backend.Backend{"counting": be})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Retry.MaxAttempts != 3 {
		t.Fatalf("recreated retries = %d", exp.Retry.MaxAttempts)
	}
}

func TestConfigResilienceKeys(t *testing.T) {
	src := `
experiment:
  workload: hotspot
  rule: fixed
  threshold: 5
  retries: 4
  retry_base_delay: 2ms
  failure_budget: 0.25
  max_consecutive_failures: 7
  chaos:
    seed: 9
    error_rate: 0.1
    timeout_rate: 0.05
    latency_rate: 0.02
    panic_rate: 0.01
  backend:
    type: sim
    machine: machine1
`
	doc, err := config.Parse([]byte(src), ".yaml")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExperimentFromConfig(doc, "experiment")
	if err != nil {
		t.Fatal(err)
	}
	if e.Retry.MaxAttempts != 4 || e.Retry.BaseDelay != 2*time.Millisecond {
		t.Fatalf("retry = %+v", e.Retry)
	}
	if e.FailureBudget.MaxFraction != 0.25 || e.FailureBudget.MaxConsecutive != 7 {
		t.Fatalf("budget = %+v", e.FailureBudget)
	}
	ch, ok := e.Backend.(*backend.Chaos)
	if !ok {
		t.Fatalf("backend not chaos-wrapped: %T", e.Backend)
	}
	if _, ok := backend.Unwrap(ch).(*backend.Sim); !ok {
		t.Fatal("chaos does not wrap the sim backend")
	}
}

// TestChaosCampaignEndToEnd is the acceptance scenario: a chaos-wrapped
// in-process backend injecting >= 20% failures (errors + timeouts + panics),
// a retried launcher campaign that completes, every failed attempt logged as
// a tidy-data row, and bit-for-bit determinism under a fixed seed.
func TestChaosCampaignEndToEnd(t *testing.T) {
	campaign := func(seed uint64) *Result {
		inner := backend.NewInProcess()
		inner.Register("steady", func(ctx context.Context, seed uint64) (map[string]float64, error) {
			return map[string]float64{backend.MetricExecTime: 1.0}, nil
		})
		chaos := backend.NewChaos(inner, backend.ChaosConfig{
			Seed:        seed,
			ErrorRate:   0.15,
			TimeoutRate: 0.10,
			PanicRate:   0.02,
			LatencyRate: 0.05,
		})
		res, err := NewLauncher().Run(context.Background(), Experiment{
			Name:          "chaos-e2e",
			Workload:      "steady",
			Backend:       chaos,
			Rule:          stopping.NewFixed(60),
			Seed:          seed,
			Retry:         resilience.Policy{MaxAttempts: 6, BaseDelay: time.Microsecond, Seed: seed},
			FailureBudget: FailureBudget{MaxConsecutive: -1, MaxFraction: -1},
		})
		if err != nil {
			t.Fatalf("chaos campaign did not complete: %v", err)
		}
		// The campaign completed: the stopping rule saw its 60 samples.
		if len(res.Samples) != 60 {
			t.Fatalf("samples = %d, want 60", len(res.Samples))
		}
		inj := chaos.Injected()
		total := inj["error"] + inj["timeout"] + inj["panic"]
		// >= 20% of first attempts must have been faulted, with at least one
		// of each kind including a panic.
		if inj["error"] == 0 || inj["timeout"] == 0 || inj["panic"] == 0 {
			t.Fatalf("fault mix incomplete: %v", inj)
		}
		if frac := float64(total) / 60; frac < 0.2 {
			t.Fatalf("injected fault fraction %.2f < 0.2 (%v)", frac, inj)
		}
		// Every injected error/timeout must surface as an error row; panics
		// surface as whole-attempt error rows once a prior attempt produced
		// results, or as retried request errors otherwise (still counted in
		// res.Errors via rows).
		errorRows := 0
		for _, row := range res.Rows {
			if row.Status == record.StatusError {
				errorRows++
				if row.Error == "" {
					t.Fatalf("error row without message: %+v", row)
				}
			}
		}
		if errorRows == 0 || res.Errors != errorRows {
			t.Fatalf("errorRows = %d res.Errors = %d", errorRows, res.Errors)
		}
		if errorRows < inj["error"]+inj["timeout"] {
			t.Fatalf("errorRows = %d < injected errors+timeouts %d: attempts dropped",
				errorRows, inj["error"]+inj["timeout"])
		}
		return res
	}

	a := campaign(1234)
	b := campaign(1234)
	if len(a.Rows) != len(b.Rows) || len(a.Samples) != len(b.Samples) {
		t.Fatalf("nondeterministic shape: %d/%d rows, %d/%d samples",
			len(a.Rows), len(b.Rows), len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Metric != rb.Metric || ra.Value != rb.Value || ra.Status != rb.Status ||
			ra.Attempt != rb.Attempt || ra.Run != rb.Run || ra.Instance != rb.Instance ||
			ra.Error != rb.Error {
			t.Fatalf("row %d differs:\n%+v\n%+v", i, ra, rb)
		}
	}
	// Different seed, different schedule (sanity that determinism is seeded,
	// not hard-coded).
	c := campaign(99)
	if fmt.Sprint(c.Errors) == fmt.Sprint(a.Errors) && len(c.Rows) == len(a.Rows) {
		sameRows := true
		for i := range a.Rows {
			if a.Rows[i].Status != c.Rows[i].Status {
				sameRows = false
				break
			}
		}
		if sameRows {
			t.Error("different seeds produced identical campaigns")
		}
	}
}

// TestFailureBudgetDisabledStillStops: with both failure-budget checks
// disabled, a campaign whose every run fails used to run until its context
// ended, since a failed run adds no sample and the rule's MaxSamples counts
// samples. It now ends with ErrFailureBudget once the failed runs in a row
// reach that cap, at any width.
func TestFailureBudgetDisabledStillStops(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		res, err := NewLauncher().Run(ctx, Experiment{
			Workload:      "w",
			Backend:       &countingBackend{failFirst: math.MaxInt},
			Rule:          stopping.NewFixed(12),
			Parallel:      parallel,
			FailureBudget: FailureBudget{MaxConsecutive: -1, MaxFraction: -1},
		})
		cancel()
		if !errors.Is(err, ErrFailureBudget) {
			t.Fatalf("parallel %d: err = %v, want ErrFailureBudget", parallel, err)
		}
		if res.Runs != 12 || res.FailedRuns != 12 || len(res.Rows) != 12 {
			t.Errorf("parallel %d: runs %d, failed %d, rows %d; want 12 each",
				parallel, res.Runs, res.FailedRuns, len(res.Rows))
		}
	}
}
