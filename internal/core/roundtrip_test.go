package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
	"sharp/internal/sysinfo"
)

// TestMetadataRoundTrip is the bugfix acceptance test: every field that
// Experiment exposes and Metadata records must survive
// Metadata → WriteTo → ParseMetadata → RecreateExperiment without loss.
// Args containing spaces, Parallel, Timeout, retry base delay, and the
// failure budget were all dropped or mangled before the fix.
func TestMetadataRoundTrip(t *testing.T) {
	// A fixed rule, and a rule whose guard rails are not its defaults: a
	// recreated rule used to lose them and stop elsewhere.
	for _, rule := range []stopping.Rule{
		stopping.NewFixed(12),
		stopping.NewKS(0.1, stopping.Bounds{MinSamples: 20, MaxSamples: 60, CheckEvery: 5}),
	} {
		t.Run(rule.Name(), func(t *testing.T) { testMetadataRoundTrip(t, rule) })
	}
}

func testMetadataRoundTrip(t *testing.T, rule stopping.Rule) {
	m1, err := machine.ByName("machine1")
	if err != nil {
		t.Fatal(err)
	}
	e := Experiment{
		Name:     "rt",
		Workload: "bfs-CUDA",
		// An arg with an embedded space: unrecoverable from the old %v
		// rendering, lossless as JSON.
		Args:        []string{"--size", "64 x", "--mode=[fast]"},
		Backend:     backend.NewSim(m1, 99),
		Rule:        rule,
		Metric:      backend.MetricExecTime,
		Concurrency: 2,
		Timeout:     2 * time.Second,
		WarmupRuns:  1,
		Day:         3,
		Seed:        2024,
		Parallel:    4,
		Retry:       resilience.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
		FailureBudget: FailureBudget{
			MaxConsecutive: 5, MaxFraction: 0.25, MinRuns: 7,
		},
	}
	res, err := NewLauncher().Run(context.Background(), e)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var buf bytes.Buffer
	if _, err := res.Metadata().WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	md, err := record.ParseMetadata(&buf)
	if err != nil {
		t.Fatalf("ParseMetadata: %v", err)
	}
	got, err := RecreateExperiment(md, nil)
	if err != nil {
		t.Fatalf("RecreateExperiment: %v", err)
	}

	if got.Name != e.Name || got.Workload != e.Workload {
		t.Errorf("identity: got %q/%q, want %q/%q", got.Name, got.Workload, e.Name, e.Workload)
	}
	if !reflect.DeepEqual(got.Args, e.Args) {
		t.Errorf("Args = %q, want %q (lossy round-trip)", got.Args, e.Args)
	}
	if got.Parallel != e.Parallel {
		t.Errorf("Parallel = %d, want %d", got.Parallel, e.Parallel)
	}
	if got.Timeout != e.Timeout {
		t.Errorf("Timeout = %v, want %v", got.Timeout, e.Timeout)
	}
	if got.Concurrency != e.Concurrency || got.WarmupRuns != e.WarmupRuns ||
		got.Day != e.Day || got.Seed != e.Seed {
		t.Errorf("scalars: got conc=%d warmup=%d day=%d seed=%d",
			got.Concurrency, got.WarmupRuns, got.Day, got.Seed)
	}
	if got.Retry.MaxAttempts != 3 || got.Retry.BaseDelay != 5*time.Millisecond ||
		got.Retry.Seed != e.Seed {
		t.Errorf("Retry = {attempts=%d delay=%v seed=%d}, want {3 5ms %d}",
			got.Retry.MaxAttempts, got.Retry.BaseDelay, got.Retry.Seed, e.Seed)
	}
	if got.FailureBudget != e.FailureBudget {
		t.Errorf("FailureBudget = %+v, want %+v", got.FailureBudget, e.FailureBudget)
	}
	if got.Rule == nil || got.Rule.Name() != e.Rule.Name() {
		t.Fatalf("Rule = %v, want %q", got.Rule, e.Rule.Name())
	}
	if got.Rule.Bounds() != e.Rule.Bounds() {
		t.Errorf("Rule.Bounds() = %+v, want %+v", got.Rule.Bounds(), e.Rule.Bounds())
	}
	// The simulated backend must be rebuilt with its machine and seed.
	sim, ok := backend.Unwrap(got.Backend).(*backend.Sim)
	if !ok {
		t.Fatalf("backend = %T, want *backend.Sim", got.Backend)
	}
	if sim.Machine.Name != "machine1" || sim.Seed != 99 {
		t.Errorf("sim backend = %s/%d, want machine1/99", sim.Machine.Name, sim.Seed)
	}

	// Re-running the recreated experiment must be admissible (withDefaults
	// accepts it) and produce the same number of runs under the same rule.
	res2, err := NewLauncher().Run(context.Background(), got)
	if err != nil {
		t.Fatalf("re-run of recreated experiment: %v", err)
	}
	if res2.Runs != res.Runs {
		t.Errorf("recreated campaign ran %d runs, original %d", res2.Runs, res.Runs)
	}
}

// TestMetadataDefaultsNotRecorded keeps results/ regeneration byte-stable:
// default-valued fields must not add metadata keys.
func TestMetadataDefaultsNotRecorded(t *testing.T) {
	m1, err := machine.ByName("machine1")
	if err != nil {
		t.Fatal(err)
	}
	e := Experiment{
		Workload: "hotspot",
		Backend:  backend.NewSim(m1, 1),
		Rule:     stopping.NewFixed(5),
		Seed:     1,
	}
	res, err := NewLauncher().Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	md := res.Metadata()
	for _, key := range []string{
		"parallel", "timeout", "retries", "retry_base_delay", "retry_seed",
		"failure_budget", "max_consecutive_failures", "failure_min_runs", "args",
		"min_samples", "max_samples", "check_every",
	} {
		if v := md.Get(key); v != "" {
			t.Errorf("default experiment recorded %s=%q; breaks byte-stable regeneration", key, v)
		}
	}
}

// TestRecreateLegacyArgs: records written before the JSON-args fix rendered
// args with %v ("[a b c]"). Space-free legacy args must still be recovered.
func TestRecreateLegacyArgs(t *testing.T) {
	md := record.NewMetadata("legacy", sysinfo.SUT{})
	md.Set("workload", "hotspot")
	md.Set("backend", "sim")
	md.Set("machine", "machine1")
	md.Set("seed", 7)
	md.Set("rule", "fixed-5")
	md.Set("args", "[--size 64]") // legacy %v rendering
	e, err := RecreateExperiment(md, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"--size", "64"}
	if !reflect.DeepEqual(e.Args, want) {
		t.Errorf("legacy args = %q, want %q", e.Args, want)
	}
}
