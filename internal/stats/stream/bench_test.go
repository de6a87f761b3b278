package stream

import "testing"

// BenchmarkHalves times the KS rule's use of Halves: 4,000 bimodal samples
// fed one at a time with a KS query every 10, the stopping rules' default
// CheckEvery. ns/sample is the cost per observation, queries included.
func BenchmarkHalves(b *testing.B) {
	xs := streams(4000)["bimodal"]
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		var h Halves
		for k, x := range xs {
			h.Add(x)
			if (k+1)%10 == 0 {
				sink += h.KS()
			}
		}
	}
	if sink < 0 {
		b.Fatal("negative KS")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
}
