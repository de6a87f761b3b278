package stream

import (
	"math"
	"math/rand/v2"
	"testing"

	"sharp/internal/stats"
)

// FuzzHalvesKS feeds Halves arbitrary sample sequences, one byte per
// sample: 0xFF is NaN, 0xFE +Inf, 0xFD -Inf and any other byte b is b/4, so
// ties are common. The second input picks the query points: bit k of it
// (bit k%8 of byte k/8) asks for KS after k+1 samples, and KS is always
// asked after the last one. Each query settles every sample since the
// previous one, so the schedule decides the sizes of the settles; KS must
// equal the recompute path, stats.KSStatistic(stats.SplitHalves(prefix)),
// bit for bit at every query.
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
	ties := make([]byte, 500)
	for i := range ties {
		ties[i] = byte(rng.IntN(12)) // three values, 0, 1 and 2
	}
	everyPrefix := make([]byte, 64)
	for i := range everyPrefix {
		everyPrefix[i] = 0xFF
	}
	f.Add(random, everyPrefix)
	f.Add(ascending, everyPrefix)
	f.Add(constant, everyPrefix)
	f.Add([]byte{0xFF, 0xFD, 0xFE, 1, 1, 0xFF}, everyPrefix)
	// The first query after 320 samples, then one every 10: the first
	// settle rebuilds the blocks, the later ones merge into them.
	late := make([]byte, 64)
	for k := 319; k < len(late)*8; k += 10 {
		late[k/8] |= 1 << (k % 8)
	}
	f.Add(random, late)
	// Every prefix up to 300 samples, then no query until the end: one
	// settle merges 200 tie-heavy samples into the blocks.
	sparse := make([]byte, 64)
	for k := range 300 {
		sparse[k/8] |= 1 << (k % 8)
	}
	f.Add(ties, sparse)

	f.Fuzz(func(t *testing.T, data, queries []byte) {
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
			if i+1 < len(xs) && (i/8 >= len(queries) || queries[i/8]>>(i%8)&1 == 0) {
				continue
			}
			if got, want := h.KS(), stats.KSStatistic(stats.SplitHalves(xs[:i+1])); got != want {
				t.Fatalf("KS at n=%d: got %v want %v", i+1, got, want)
			}
		}
	})
}
