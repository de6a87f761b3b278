package report

import (
	"testing"

	"sharp/internal/core"
	"sharp/internal/testsamples"
)

// benchText keeps the rendered text alive so the compiler cannot drop the
// measured calls.
var benchText string

// BenchmarkCompare31k is the work of sharp compare on perfbench-sized
// inputs: core.Compare and the rendered comparison of 31,252 hotspot
// samples from machine1 against as many from machine3.
func BenchmarkCompare31k(b *testing.B) {
	xa := testsamples.SimExecTimes(b, "hotspot", "machine1", 11)
	xb := testsamples.SimExecTimes(b, "hotspot", "machine3", 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := core.Compare("a", xa, "b", xb)
		if err != nil {
			b.Fatal(err)
		}
		benchText = Comparison(cmp, xa, xb, Options{})
	}
}

// BenchmarkDistribution31k is the work of sharp report on one
// perfbench-sized sample set: the rendered distribution of 31,252 hotspot
// samples.
func BenchmarkDistribution31k(b *testing.B) {
	xs := testsamples.SimExecTimes(b, "hotspot", "machine1", 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchText = Distribution("exec_time", xs, Options{})
	}
}
