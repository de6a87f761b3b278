package report

import (
	"context"
	"os"
	"path/filepath"
	"sharp/internal/fsx"
	"strings"
	"testing"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/stopping"
)

func runExperiment(t *testing.T, machineName, workload string, n int) *core.Result {
	t.Helper()
	m, err := machine.ByName(machineName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewLauncher().Run(context.Background(), core.Experiment{
		Name:     workload + "@" + machineName,
		Workload: workload,
		Backend:  backend.NewSim(m, 42),
		Rule:     stopping.NewFixed(n),
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultReport(t *testing.T) {
	res := runExperiment(t, "machine1", "hotspot", 300)
	out := Result(res, Options{})
	for _, want := range []string{
		"# SHARP report: hotspot@machine1",
		"## Distribution of exec_time",
		"| n | mean |",
		"mean CI (t):",
		"mean CI (bootstrap",
		"median CI (order stat):",
		"Modality: 3 mode(s)",
		"Histogram",
		"Boxplot",
		"ECDF",
		"stop: fixed budget",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestDistributionEmpty(t *testing.T) {
	out := Distribution("x", nil, Options{})
	if !strings.Contains(out, "no samples") {
		t.Errorf("empty distribution report: %q", out)
	}
}

func TestComparisonReport(t *testing.T) {
	a := runExperiment(t, "machine1", "bfs-CUDA", 300)
	b := runExperiment(t, "machine3", "bfs-CUDA", 300)
	cmp, err := core.CompareResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := Comparison(cmp, a.Samples, b.Samples, Options{})
	for _, want := range []string{
		"# Comparison: bfs-CUDA@machine1 vs bfs-CUDA@machine3",
		"NAMD (point-summary)",
		"KS (distribution)",
		"speedup",
		"Mann-Whitney U",
		"Boxplots (common scale",
		"modes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
	// The H100 speedup should read ~2x.
	if !strings.Contains(out, "speedup 1.9") && !strings.Contains(out, "speedup 2.0") &&
		!strings.Contains(out, "speedup 2.1") {
		t.Errorf("speedup not in expected band; report:\n%s", out)
	}
}

func TestInterpretations(t *testing.T) {
	if interpretNAMD(0.001) != "means indistinguishable" {
		t.Error("NAMD interpretation")
	}
	if interpretKS(0.5, 0.0001) != "strong distribution difference" {
		t.Error("KS interpretation")
	}
	if interpretKS(0.05, 0.9) != "distributions statistically indistinguishable" {
		t.Error("KS p interpretation")
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.md")
	if err := WriteFile(path, "# hi\n"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "# hi\n" {
		t.Fatalf("file: %q, %v", data, err)
	}
}

func TestSuiteReport(t *testing.T) {
	results := []*core.Result{
		runExperiment(t, "machine1", "bfs", 150),
		runExperiment(t, "machine1", "hotspot", 150),
		runExperiment(t, "machine1", "lud", 150),
	}
	out := Suite("cpu-trio", results, Options{})
	for _, want := range []string{
		"# SHARP suite report: cpu-trio",
		"bfs@machine1", "hotspot@machine1", "lud@machine1",
		"Boxplots (common scale",
		"| experiment | n | mean |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("suite report missing %q", want)
		}
	}
	// Single result: no boxplot block, no panic.
	solo := Suite("solo", results[:1], Options{})
	if strings.Contains(solo, "common scale") {
		t.Error("solo suite should skip the common-scale block")
	}
	// Empty: header only.
	if out := Suite("empty", nil, Options{}); !strings.Contains(out, "empty") {
		t.Error("empty suite broken")
	}
}

// WriteFile writes a rendered report to path atomically (temp file +
// rename), so an interrupted export never leaves a truncated report.
func WriteFile(path, content string) error {
	return fsx.WriteFile(path, []byte(content), 0o644)
}
