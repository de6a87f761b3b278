package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sharp/internal/stats
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig4Distributions-8   	       1	58640588 ns/op	 3408856 B/op	    1477 allocs/op	      70.0 multimodal_%
BenchmarkFig1bAutoStopping-8   	       1	52675136 ns/op	 8436464 B/op	   99960 allocs/op	   0.06561 KS_to_truth	     87.22 savings_%
PASS
ok  	sharp	1.2s
`

func TestParseBench(t *testing.T) {
	env, results, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if env["goos"] != "linux" || env["pkg"] != "sharp/internal/stats" {
		t.Fatalf("env = %v", env)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	fig4 := results[0]
	if fig4.Name != "BenchmarkFig4Distributions" {
		t.Fatalf("proc suffix not stripped: %q", fig4.Name)
	}
	if fig4.NsPerOp != 58640588 || fig4.AllocsPerOp != 1477 {
		t.Fatalf("timings misparsed: %+v", fig4)
	}
	if fig4.Metrics["multimodal_%"] != 70.0 {
		t.Fatalf("metrics misparsed: %+v", fig4.Metrics)
	}
	if results[1].Metrics["savings_%"] != 87.22 {
		t.Fatalf("metrics misparsed: %+v", results[1].Metrics)
	}
}

func TestGate(t *testing.T) {
	_, results, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := &Snapshot{Benchmarks: []*BenchmarkResult{
		{Name: "BenchmarkFig4Distributions", Metrics: map[string]float64{"multimodal_%": 70.0}},
		{Name: "BenchmarkFig1bAutoStopping", Metrics: map[string]float64{"savings_%": 87.22, "KS_to_truth": 0.06561}},
	}}
	cols := []string{"multimodal_%", "savings_%"}
	if v, _ := gate(base, results, cols, nil, 1e-6); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Drift in a gated column fails.
	base.Benchmarks[0].Metrics["multimodal_%"] = 65.0
	if v, _ := gate(base, results, cols, nil, 1e-6); len(v) != 1 {
		t.Fatalf("expected 1 violation, got %v", v)
	}
	// Drift in a non-gated column (timing-adjacent metric) passes.
	base.Benchmarks[0].Metrics["multimodal_%"] = 70.0
	base.Benchmarks[1].Metrics["KS_to_truth"] = 0.9
	if v, _ := gate(base, results, cols, nil, 1e-6); len(v) != 0 {
		t.Fatalf("non-gated column should not fail: %v", v)
	}
	// Missing benchmark fails.
	base.Benchmarks = append(base.Benchmarks,
		&BenchmarkResult{Name: "BenchmarkGone", Metrics: map[string]float64{"savings_%": 1}})
	if v, _ := gate(base, results, cols, nil, 1e-6); len(v) != 1 {
		t.Fatalf("expected missing-benchmark violation, got %v", v)
	}
}

func TestGateFloor(t *testing.T) {
	_, results, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := &Snapshot{Benchmarks: []*BenchmarkResult{
		{Name: "BenchmarkFig1bAutoStopping", Metrics: map[string]float64{"savings_%": 80}},
	}}
	// Current 87.22 beats the 80 floor.
	if v, _ := gate(base, results, nil, []string{"savings_%"}, 1e-6); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Raise the floor above the current value: one-sided failure.
	base.Benchmarks[0].Metrics["savings_%"] = 90
	if v, _ := gate(base, results, nil, []string{"savings_%"}, 1e-6); len(v) != 1 || !strings.Contains(v[0], "below floor") {
		t.Fatalf("expected floor violation, got %v", v)
	}
	// The same column as an exact gate would fail in both directions.
	base.Benchmarks[0].Metrics["savings_%"] = 80
	if v, _ := gate(base, results, []string{"savings_%"}, nil, 1e-6); len(v) != 1 {
		t.Fatalf("exact gate should reject 80 vs 87.22: %v", v)
	}
}

// TestGateRepeats covers a benchmark run with -count: its repeated lines
// are all kept, a floor is judged on their median, and an exact column must
// match on every repeat.
func TestGateRepeats(t *testing.T) {
	const repeats = `BenchmarkRecordReplaySpeedup1e6-2   	       1	 1 ns/op	  11.27 speedup_x	  68.03 bin_bytes_per_row
BenchmarkRecordReplaySpeedup1e6-2   	       1	 1 ns/op	   8.49 speedup_x	  68.03 bin_bytes_per_row
BenchmarkRecordReplaySpeedup1e6-2   	       1	 1 ns/op	  13.15 speedup_x	  68.03 bin_bytes_per_row
BenchmarkRecordReplaySpeedup1e6-2   	       1	 1 ns/op	  12.06 speedup_x	  68.03 bin_bytes_per_row
BenchmarkRecordReplaySpeedup1e6-2   	       1	 1 ns/op	  11.96 speedup_x	  68.03 bin_bytes_per_row
`
	_, results, err := parseBench(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d repeats, want 5", len(results))
	}
	base := &Snapshot{Benchmarks: []*BenchmarkResult{{
		Name:    "BenchmarkRecordReplaySpeedup1e6",
		Metrics: map[string]float64{"speedup_x": 10, "bin_bytes_per_row": 68.03},
	}}}
	exact, floor := []string{"bin_bytes_per_row"}, []string{"speedup_x"}
	// One sample (8.49) is below the floor of 10; the median (11.96) is not.
	if v, w := gate(base, results, exact, floor, 1e-6); len(v) != 0 || len(w) != 0 {
		t.Fatalf("median above the floor should pass: violations %v, warnings %v", v, w)
	}
	// A median below the floor fails.
	base.Benchmarks[0].Metrics["speedup_x"] = 12
	if v, _ := gate(base, results, exact, floor, 1e-6); len(v) != 1 || !strings.Contains(v[0], "median of 5") {
		t.Fatalf("median below the floor should fail once: %v", v)
	}
	base.Benchmarks[0].Metrics["speedup_x"] = 10
	// An exact column that drifts in a single repeat fails.
	results[3].Metrics["bin_bytes_per_row"] = 68.5
	if v, _ := gate(base, results, exact, floor, 1e-6); len(v) != 1 || !strings.Contains(v[0], "drifted") {
		t.Fatalf("one drifting repeat should fail: %v", v)
	}
	// A repeat that lacks a gated column fails.
	delete(results[3].Metrics, "bin_bytes_per_row")
	if v, _ := gate(base, results, exact, floor, 1e-6); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("a repeat without the column should fail: %v", v)
	}
}
