package sweep

import (
	"context"
	"testing"
	"time"
)

// BenchmarkSweepWarm times a warm sweep: a 3 x 3 x 5 design of multimodal
// benchmarks under ks 0.02 (at most 4,000 runs per cell) replayed from a
// cache filled by one cold pass, so every cell is a cache hit whose rows
// the launcher feeds back through the KS rule. runs/s counts replayed runs.
func BenchmarkSweepWarm(b *testing.B) {
	d := Design{
		Name:      "bench-warm",
		Workloads: []string{"hotspot", "lud", "bfs"},
		Machines:  []string{"machine1", "machine2", "machine3"},
		Days:      []int{1, 2, 3, 4, 5},
		RuleName:  "ks",
		Threshold: 0.02,
		MaxRuns:   4000,
		Seed:      11,
		CacheDir:  b.TempDir(),
	}
	d.SetClock(func() time.Time { return time.Unix(1735776000, 0).UTC() })
	cold, err := Run(context.Background(), d)
	if err != nil {
		b.Fatal(err)
	}
	runs := 0
	for _, c := range cold.Cells {
		runs += c.Result.Runs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs*b.N)/b.Elapsed().Seconds(), "runs/s")
}
