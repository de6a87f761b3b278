package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
	"sharp/internal/sysinfo"
)

// TestMetadataRoundTrip is the acceptance test of the metadata codec: the
// spec an experiment was built from must survive Metadata → WriteTo →
// ParseMetadata → RecreateExperiment without loss, and rebuild the same
// campaign. Args with spaces, Parallel, Timeout, the retry policy, the
// failure budget, chaos and the rule's guard rails were each dropped or
// mangled by an earlier per-field record.
func TestMetadataRoundTrip(t *testing.T) {
	// A fixed rule, and a rule whose guard rails are not its defaults: a
	// recreated rule used to lose them and stop elsewhere.
	for _, rule := range []stopping.Spec{
		{Kind: "fixed", Threshold: 12},
		{Kind: "ks", Threshold: 0.1, Bounds: stopping.Bounds{MinSamples: 20, MaxSamples: 60, CheckEvery: 5}},
	} {
		r, err := rule.New()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(r.Name(), func(t *testing.T) { testMetadataRoundTrip(t, rule) })
	}
}

func testMetadataRoundTrip(t *testing.T, rule stopping.Spec) {
	spec := Spec{
		Name:     "rt",
		Workload: "bfs-CUDA",
		// An arg with an embedded space: unrecoverable from a %v
		// rendering, lossless as JSON.
		Args: []string{"--size", "64 x", "--mode=[fast]"},
		Backend: BackendSpec{Kind: "sim", Machine: "machine1", Seed: 99,
			Chaos: &backend.ChaosConfig{Seed: 5, LatencyRate: 0.1, LatencySpike: 0.5}},
		Rule:        rule,
		Metric:      backend.MetricExecTime,
		Concurrency: 2,
		Timeout:     2 * time.Second,
		WarmupRuns:  1,
		Day:         3,
		Seed:        2024,
		Parallel:    4,
		Retry:       resilience.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Microsecond, Multiplier: 1.5},
		FailureBudget: FailureBudget{
			MaxConsecutive: 5, MaxFraction: 0.25, MinRuns: 7,
		},
	}
	e, err := spec.Experiment(nil)
	if err != nil {
		t.Fatal(err)
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
	if !reflect.DeepEqual(*got.spec, spec) {
		t.Errorf("recreated spec\n%+v\nwant\n%+v", *got.spec, spec)
	}
	if !reflect.DeepEqual(got.Args, e.Args) {
		t.Errorf("Args = %q, want %q (lossy round-trip)", got.Args, e.Args)
	}
	if got.Parallel != e.Parallel || got.Timeout != e.Timeout || got.Retry.Multiplier != 1.5 ||
		got.FailureBudget != e.FailureBudget {
		t.Errorf("recreated experiment %+v, want %+v", got, e)
	}
	if got.Rule.Name() != e.Rule.Name() || got.Rule.Bounds() != e.Rule.Bounds() {
		t.Errorf("Rule = %s %+v, want %s %+v", got.Rule.Name(), got.Rule.Bounds(), e.Rule.Name(), e.Rule.Bounds())
	}
	// The simulated backend must be rebuilt with its machine and seed,
	// under the same fault injection.
	if _, ok := got.Backend.(*backend.Chaos); !ok {
		t.Fatalf("backend = %T, want *backend.Chaos", got.Backend)
	}
	sim, ok := backend.Unwrap(got.Backend).(*backend.Sim)
	if !ok {
		t.Fatalf("backend = %T, want a Sim under the chaos layer", got.Backend)
	}
	if sim.Machine.Name != "machine1" || sim.Seed != 99 {
		t.Errorf("sim backend = %s/%d, want machine1/99", sim.Machine.Name, sim.Seed)
	}

	// The recreated campaign logs the same rows.
	res2, err := NewLauncher().Run(context.Background(), got)
	if err != nil {
		t.Fatalf("re-run of recreated experiment: %v", err)
	}
	if res2.Runs != res.Runs || len(res2.Rows) != len(res.Rows) {
		t.Fatalf("recreated campaign ran %d runs / %d rows, original %d / %d",
			res2.Runs, len(res2.Rows), res.Runs, len(res.Rows))
	}
	for i := range res.Rows {
		a, b := res.Rows[i], res2.Rows[i]
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("row %d: recreated %+v, original %+v", i, b, a)
		}
	}
}

// TestMetadataDefaultsNotRecorded keeps the record small and stable:
// default-valued spec fields are left out of the encoding, and none of the
// per-field parameters of the older record form is written.
func TestMetadataDefaultsNotRecorded(t *testing.T) {
	e, err := Spec{
		Workload: "hotspot",
		Backend:  BackendSpec{Kind: "sim", Machine: "machine1", Seed: 1},
		Rule:     stopping.Spec{Kind: "fixed", Threshold: 5},
		Seed:     1,
	}.Experiment(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewLauncher().Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	md := res.Metadata()
	const want = `{"workload":"hotspot","backend":{"kind":"sim","machine":"machine1","seed":1},` +
		`"rule":{"kind":"fixed","threshold":5},"seed":1,"retry":{},"failure_budget":{}}`
	if got := md.Get("spec"); got != want {
		t.Errorf("spec = %s\nwant   %s", got, want)
	}
	for _, key := range []string{
		"workload", "backend", "rule", "parallel", "timeout", "retries", "retry_base_delay",
		"retry_seed", "failure_budget", "max_consecutive_failures", "failure_min_runs", "args",
		"min_samples", "max_samples", "check_every",
	} {
		if v := md.Get(key); v != "" {
			t.Errorf("metadata recorded %s=%q outside the spec", key, v)
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

// TestRecreateLegacyRecord recreates a metadata record written in the
// per-field form that preceded the spec encoding (testdata/legacy_ks.md: a
// sim KS campaign with non-default bounds, retries, a failure budget, a
// timeout, warm-ups and two instances per run) and checks its rows against
// those `sharp recreate` of that form logged
// (testdata/legacy_ks_recreate.csv), timestamps aside.
func TestRecreateLegacyRecord(t *testing.T) {
	md, err := record.ParseMetadataFile("testdata/legacy_ks.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := record.ReadFile("testdata/legacy_ks_recreate.csv")
	if err != nil {
		t.Fatal(err)
	}
	e, err := RecreateExperiment(md, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b := e.Rule.Bounds(); b != (stopping.Bounds{MinSamples: 20, MaxSamples: 400, CheckEvery: 10}) {
		t.Errorf("rule bounds = %+v", b)
	}
	if e.Retry.MaxAttempts != 3 || e.Retry.BaseDelay != 2*time.Millisecond || e.Timeout != 5*time.Second ||
		e.FailureBudget != (FailureBudget{MaxConsecutive: 6, MaxFraction: 0.4, MinRuns: 10}) {
		t.Errorf("recreated experiment %+v", e)
	}
	res, err := NewLauncher().Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("recreated %d rows, the record's recreate logged %d", len(res.Rows), len(want))
	}
	for i, got := range res.Rows {
		w := want[i]
		got.Timestamp, w.Timestamp = time.Time{}, time.Time{}
		if got != w {
			t.Fatalf("row %d: %+v, want %+v", i+1, got, w)
		}
	}
}
