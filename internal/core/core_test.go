package core

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/config"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

func simBackend(t *testing.T, machineName string) *backend.Sim {
	t.Helper()
	m, err := machine.ByName(machineName)
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewSim(m, 42)
}

func TestLauncherRunWithKSRule(t *testing.T) {
	l := NewLauncher()
	res, err := l.Run(context.Background(), Experiment{
		Name:     "test-hotspot",
		Workload: "hotspot",
		Backend:  simBackend(t, "machine1"),
		Rule:     stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 1000}),
		Day:      1,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs < 10 || res.Runs >= 1000 {
		t.Errorf("runs = %d", res.Runs)
	}
	if len(res.Samples) != res.Runs {
		t.Errorf("samples %d != runs %d", len(res.Samples), res.Runs)
	}
	if res.StopReason == "" || !strings.Contains(res.RuleName, "ks") {
		t.Errorf("rule bookkeeping: %q / %q", res.RuleName, res.StopReason)
	}
	if len(res.Rows) < res.Runs {
		t.Errorf("rows = %d", len(res.Rows))
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean < 2.5 || sum.Mean > 4 {
		t.Errorf("hotspot mean %.2f implausible", sum.Mean)
	}
}

func TestLauncherDefaultsToMetaRule(t *testing.T) {
	l := NewLauncher()
	res, err := l.Run(context.Background(), Experiment{
		Workload: "srad",
		Backend:  simBackend(t, "machine1"),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleName != "meta" {
		t.Errorf("default rule = %q", res.RuleName)
	}
	if res.Experiment.Name != "srad" {
		t.Errorf("name default = %q", res.Experiment.Name)
	}
}

func TestLauncherValidation(t *testing.T) {
	l := NewLauncher()
	if _, err := l.Run(context.Background(), Experiment{Workload: "x"}); err == nil {
		t.Error("missing backend accepted")
	}
	if _, err := l.Run(context.Background(), Experiment{Backend: simBackend(t, "machine1")}); err == nil {
		t.Error("missing workload accepted")
	}
}

func TestLauncherPhaseMetricsLogged(t *testing.T) {
	l := NewLauncher()
	res, err := l.Run(context.Background(), Experiment{
		Workload: "leukocyte",
		Backend:  simBackend(t, "machine1"),
		Rule:     stopping.NewFixed(50),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := res.MetricSamples("detection_time")
	trk := res.MetricSamples("tracking_time")
	if len(det) != 50 || len(trk) != 50 {
		t.Fatalf("phase samples = %d/%d", len(det), len(trk))
	}
}

func TestResultCSVAndMetadataRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := NewLauncher()
	exp, err := Spec{
		Name:     "roundtrip",
		Workload: "bfs",
		Backend:  BackendSpec{Kind: "sim", Machine: "machine2", Seed: 42},
		Rule:     stopping.Spec{Kind: "fixed", Threshold: 30},
		Day:      2,
		Seed:     99,
	}.Experiment(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "log.csv")
	mdPath := filepath.Join(dir, "meta.md")
	if err := res.SaveCSV(csvPath); err != nil {
		t.Fatal(err)
	}
	if err := res.SaveMetadata(mdPath); err != nil {
		t.Fatal(err)
	}
	rows, err := record.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Rows) {
		t.Errorf("CSV rows %d != %d", len(rows), len(res.Rows))
	}

	// The key reproducibility feature: recreate the experiment from its own
	// metadata and get an identical distribution (same seed, same backend).
	md, err := record.ParseMetadataFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := RecreateExperiment(md, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := l.Run(context.Background(), exp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Samples) != len(res.Samples) {
		t.Fatalf("recreated runs %d != %d", len(res2.Samples), len(res.Samples))
	}
	for i := range res.Samples {
		if res.Samples[i] != res2.Samples[i] {
			t.Fatalf("recreated sample %d: %v != %v", i, res2.Samples[i], res.Samples[i])
		}
	}
}

func TestRecreateUnknownBackend(t *testing.T) {
	md := record.NewMetadata("x", machine.Testbed()[0].SUT())
	md.Set("workload", "bfs")
	md.Set("backend", "faas")
	if _, err := RecreateExperiment(md, nil); err == nil {
		t.Error("unrecreatable backend accepted without supply")
	}
	// Supplying the backend fixes it.
	b := backend.NewSim(machine.Testbed()[0], 1)
	if _, err := RecreateExperiment(md, map[string]backend.Backend{"faas": b}); err != nil {
		t.Errorf("supplied backend rejected: %v", err)
	}
}

func TestRuleFromNameForms(t *testing.T) {
	for _, name := range []string{
		"fixed-100", "ci-0.05", "ks-0.1", "cv-0.1", "mean-stability-0.02",
		"median-stability-0.02", "modality-stability-3", "ess-100",
		"self-similarity-0.08", "meta",
	} {
		r, err := legacyRule(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r == nil {
			t.Errorf("%s: nil rule", name)
		}
	}
	if _, err := legacyRule("bogus-1"); err == nil {
		t.Error("bogus rule accepted")
	}
}

func TestCompare(t *testing.T) {
	l := NewLauncher()
	runOn := func(machineName, bench string) *Result {
		res, err := l.Run(context.Background(), Experiment{
			Name:     bench + "@" + machineName,
			Workload: bench,
			Backend:  simBackend(t, machineName),
			Rule:     stopping.NewFixed(300),
			Seed:     5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a100 := runOn("machine1", "bfs-CUDA")
	h100 := runOn("machine3", "bfs-CUDA")
	cmp, err := CompareResults(a100, h100)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup < 1.6 || cmp.Speedup > 2.4 {
		t.Errorf("bfs-CUDA speedup = %.2f, want ~2", cmp.Speedup)
	}
	if cmp.KS < 0.8 {
		t.Errorf("disjoint distributions KS = %v", cmp.KS)
	}
	if cmp.MannWhitney.PValue > 1e-10 {
		t.Errorf("MW p = %v for clearly shifted distributions", cmp.MannWhitney.PValue)
	}
	if _, err := Compare("a", nil, "b", []float64{1}); err == nil {
		t.Error("empty comparison accepted")
	}
}

func TestWarmupNotRecorded(t *testing.T) {
	l := NewLauncher()
	res, err := l.Run(context.Background(), Experiment{
		Workload:   "srad",
		Backend:    simBackend(t, "machine1"),
		Rule:       stopping.NewFixed(20),
		WarmupRuns: 5,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 20 || len(res.Samples) != 20 {
		t.Errorf("warmups leaked into measurements: runs=%d", res.Runs)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := NewLauncher()
	_, err := l.Run(ctx, Experiment{
		Workload: "srad",
		Backend:  simBackend(t, "machine1"),
		Rule:     stopping.NewFixed(1000),
	})
	if err == nil {
		t.Error("cancelled context not honored")
	}
}

func TestExperimentFromConfig(t *testing.T) {
	src := `
experiment:
  name: cfg-hotspot
  workload: hotspot
  rule: ks
  threshold: 0.1
  max_runs: 200
  warmup_runs: 1
  day: 2
  seed: 7
  timeout: 30s
  backend:
    type: sim
    machine: machine2
    seed: 7
`
	doc, err := config.Parse([]byte(src), ".yaml")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ExperimentFromConfig(doc, "experiment")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "cfg-hotspot" || exp.Day != 2 || exp.Seed != 7 || exp.WarmupRuns != 1 {
		t.Fatalf("exp = %+v", exp)
	}
	if exp.Timeout.Seconds() != 30 {
		t.Fatalf("timeout = %v", exp.Timeout)
	}
	res, err := NewLauncher().Run(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs < 10 || res.Runs > 200 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if !strings.Contains(res.RuleName, "ks") {
		t.Fatalf("rule = %q", res.RuleName)
	}
}

func TestExperimentFromConfigErrors(t *testing.T) {
	cases := []string{
		`{"experiment": {"backend": {"type": "sim"}}}`,
		`{"experiment": {"workload": "x", "backend": {"type": "nope"}}}`,
		`{"experiment": {"workload": "x", "backend": {"type": "process"}}}`,
		`{"experiment": {"workload": "x", "rule": "ghost", "backend": {"type": "sim"}}}`,
		`{"experiment": {"workload": "x", "timeout": "bogus", "backend": {"type": "sim"}}}`,
	}
	for _, src := range cases {
		doc, err := config.Parse([]byte(src), ".json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ExperimentFromConfig(doc, "experiment"); err == nil {
			t.Errorf("no error for %s", src)
		}
	}
}

// TestMetadataCreatedFollowsLauncherClock pins the metadata's created stamp
// to the campaign clock: with time.Now it straddled second boundaries, so a
// resumed campaign's metadata could differ from the uninterrupted one's.
func TestMetadataCreatedFollowsLauncherClock(t *testing.T) {
	pinned := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	l := &Launcher{Clock: func() time.Time { return pinned }}
	res, err := l.Run(context.Background(), buildExperiment(t, "fixed", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metadata().Created; !got.Equal(pinned) {
		t.Errorf("created = %v, want the launcher clock's %v", got, pinned)
	}
}
