package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI's command surface, exercised through run(args) end to end: every
// subcommand with valid and invalid inputs, plus the CSV/metadata artifact
// pipeline (run -> report -> classify -> recreate -> regress).

func TestUsageAndUnknown(t *testing.T) {
	if err := run(context.Background(), nil); err != nil {
		t.Fatalf("bare invocation: %v", err)
	}
	if err := run(context.Background(), []string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
	if err := run(context.Background(), []string{"frobnicate"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestRulesAndBenchmarks(t *testing.T) {
	if err := run(context.Background(), []string{"rules"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"benchmarks"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommandValidation(t *testing.T) {
	if err := run(context.Background(), []string{"run"}); err == nil || !strings.Contains(err.Error(), "--workload") {
		t.Fatalf("missing workload: %v", err)
	}
	if err := run(context.Background(), []string{"run", "--workload", "ghost"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run(context.Background(), []string{"run", "--workload", "bfs", "--machine", "ghost"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if err := run(context.Background(), []string{"run", "--workload", "bfs", "--backend", "ghost"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := run(context.Background(), []string{"run", "--workload", "bfs", "--rule", "ghost"}); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

func TestRunArtifactPipeline(t *testing.T) {
	dir := t.TempDir()
	csvA := filepath.Join(dir, "a.csv")
	csvB := filepath.Join(dir, "b.csv")
	meta := filepath.Join(dir, "meta.md")

	// 1. run: produce a baseline log + metadata on machine1.
	err := run(context.Background(), []string{"run", "--workload", "srad", "--machine", "machine1",
		"--rule", "fixed", "--threshold", "100",
		"--csv", csvA, "--meta", meta, "--quiet"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csvA); err != nil {
		t.Fatal(err)
	}

	// 2. run: a faster "current" log on machine3.
	err = run(context.Background(), []string{"run", "--workload", "srad", "--machine", "machine3",
		"--rule", "fixed", "--threshold", "100", "--csv", csvB, "--quiet"})
	if err != nil {
		t.Fatal(err)
	}

	// 3. report and classify over the recorded CSV.
	if err := run(context.Background(), []string{"report", csvA}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"classify", csvA}); err != nil {
		t.Fatal(err)
	}

	// 4. recreate from metadata (bit-for-bit reproduction path).
	if err := run(context.Background(), []string{"recreate", meta}); err != nil {
		t.Fatal(err)
	}

	// 5. regress: machine3 vs machine1 baseline is an improvement (exit ok);
	// the reverse is a regression (exit error).
	if err := run(context.Background(), []string{"regress", csvA, csvB}); err != nil {
		t.Fatalf("improvement flagged: %v", err)
	}
	if err := run(context.Background(), []string{"regress", csvB, csvA}); err == nil {
		t.Fatal("regression not flagged")
	}
}

func TestCompareCommand(t *testing.T) {
	err := run(context.Background(), []string{"compare", "--workload", "bfs-CUDA",
		"--machine", "machine1", "--machine2", "machine3",
		"--rule", "fixed", "--threshold", "150"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"compare"}); err == nil {
		t.Fatal("missing workload accepted")
	}
}

func TestDuetCommand(t *testing.T) {
	err := run(context.Background(), []string{"duet", "--workload", "bfs", "--workload2", "srad",
		"--machine", "machine1", "--pairs", "60"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"duet", "--workload", "bfs"}); err == nil {
		t.Fatal("missing workload2 accepted")
	}
}

func TestKernelBackendViaCLI(t *testing.T) {
	// Real kernels measured end to end (tiny fixed budget to stay fast).
	err := run(context.Background(), []string{"run", "--workload", "lud-CUDA", "--backend", "kernel",
		"--rule", "fixed", "--threshold", "5", "--quiet"})
	if err != nil {
		t.Fatal(err)
	}
	// Microbenchmarks are registered too.
	err = run(context.Background(), []string{"run", "--workload", "matmul", "--backend", "kernel",
		"--rule", "fixed", "--threshold", "5", "--quiet"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportErrors(t *testing.T) {
	if err := run(context.Background(), []string{"report"}); err == nil {
		t.Fatal("missing path accepted")
	}
	if err := run(context.Background(), []string{"report", "/nonexistent.csv"}); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "x.csv")
	if err := run(context.Background(), []string{"run", "--workload", "bfs", "--rule", "fixed",
		"--threshold", "20", "--csv", csv, "--quiet"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"report", "--metric", "nope", csv}); err == nil {
		t.Fatal("missing metric accepted")
	}
}

func TestSweepCommand(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "sweep.csv")
	err := run(context.Background(), []string{"sweep", "--workloads", "bfs", "--machines", "machine1",
		"--rule", "fixed", "--threshold", "30", "--csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"sweep"}); err == nil {
		t.Fatal("missing workloads accepted")
	}
	if err := run(context.Background(), []string{"sweep", "--workloads", "bfs", "--days", "x"}); err == nil {
		t.Fatal("bad day accepted")
	}
}

func TestDaysCommand(t *testing.T) {
	err := run(context.Background(), []string{"days", "--workload", "hotspot", "--machine", "machine2",
		"--days", "5", "--runs", "200"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"days"}); err == nil {
		t.Fatal("missing workload accepted")
	}
	if err := run(context.Background(), []string{"days", "--workload", "bfs", "--machine", "ghost"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestRunFromConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "exp.yaml")
	os.WriteFile(cfg, []byte(`
experiment:
  name: cfg-run
  workload: bfs
  rule: fixed
  threshold: 25
  backend:
    type: sim
    machine: machine1
`), 0o644)
	if err := run(context.Background(), []string{"run", "--config", cfg, "--quiet"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"run", "--config", "/nonexistent.yaml"}); err == nil {
		t.Fatal("missing config accepted")
	}
}

// TestDaysHonoursRunFlags: `sharp days` builds each day's campaign from the
// same flags as `sharp run`, so the backend, chaos and concurrency flags it
// registers take effect (they were once ignored).
func TestDaysHonoursRunFlags(t *testing.T) {
	for _, bad := range [][]string{{"--backend", "ghost"}, {"--chaos", "1.5"}} {
		args := append([]string{"days", "--workload", "bfs", "--days", "2", "--runs", "20"}, bad...)
		if err := run(context.Background(), args); err == nil {
			t.Errorf("days %v accepted", bad)
		}
	}
	if err := run(context.Background(), []string{"days", "--workload", "matmul", "--backend", "kernel",
		"--concurrency", "2", "--days", "2", "--runs", "5"}); err != nil {
		t.Fatal(err)
	}
}
