package stream

import (
	"math"
	"math/rand/v2"
	"testing"

	"sharp/internal/stats"
)

// FuzzHalvesKS feeds Halves arbitrary sample sequences, one byte per
// sample: 0xFF is NaN, 0xFE +Inf, 0xFD -Inf and any other byte b is b/4, so
// ties are common. At every prefix KS must return and equal the recompute
// path, stats.KSStatistic(stats.SplitHalves(prefix)), bit for bit.
func FuzzHalvesKS(f *testing.F) {
	rng := rand.New(rand.NewPCG(29, 31))
	random := make([]byte, 400)
	for i := range random {
		random[i] = byte(rng.IntN(256))
	}
	ascending := make([]byte, 256)
	for i := range ascending {
		ascending[i] = byte(i)
	}
	constant := make([]byte, 200)
	for i := range constant {
		constant[i] = 7
		if i%17 == 0 {
			constant[i] = 0xFF
		}
	}
	f.Add(random)
	f.Add(ascending)
	f.Add(constant)
	f.Add([]byte{0xFF, 0xFD, 0xFE, 1, 1, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		xs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 0xFF:
				xs[i] = math.NaN()
			case 0xFE:
				xs[i] = math.Inf(1)
			case 0xFD:
				xs[i] = math.Inf(-1)
			default:
				xs[i] = float64(b / 4)
			}
		}
		var h Halves
		for i, x := range xs {
			h.Add(x)
			if got, want := h.KS(), stats.KSStatistic(stats.SplitHalves(xs[:i+1])); got != want {
				t.Fatalf("KS at n=%d: got %v want %v", i+1, got, want)
			}
		}
	})
}
