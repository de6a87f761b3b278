package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"sharp/internal/testsamples"
)

// sortedCopyInput decodes a fuzz input into n values drawn from a palette of
// raw float64 words (8 little-endian bytes each, NaN payloads included).
// jitter%53 low mantissa bits of each draw are randomized, so a small
// palette gives heavy ties at jitter 0 and distinct values (subnormals, from
// a zero) above it.
func sortedCopyInput(words []byte, n uint16, seed uint64, jitter uint8) []float64 {
	var palette []uint64
	for ; len(words) >= 8; words = words[8:] {
		palette = append(palette, binary.LittleEndian.Uint64(words))
	}
	if len(palette) == 0 {
		return nil
	}
	r := rand.New(rand.NewPCG(seed, 0x50c7))
	low := uint64(1)<<(jitter%53) - 1
	xs := make([]float64, int(n)%4096)
	for i := range xs {
		xs[i] = math.Float64frombits(palette[r.IntN(len(palette))] ^ r.Uint64()&low)
	}
	return xs
}

func wordBytes(vals ...float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzSortedCopy holds SortedCopy to sort.Float64s on a copy, Float64bits
// for Float64bits, on lengths either side of radixCutoff: ±0 alone and
// together, NaN payloads, ±Inf, subnormals, heavy ties, negative and
// mixed-sign sets.
func FuzzSortedCopy(f *testing.F) {
	nz, inf := math.Copysign(0, -1), math.Inf(1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff0000000000005)
	rng := rand.New(rand.NewPCG(27, 31))
	var normal []float64
	for i := 0; i < 64; i++ {
		normal = append(normal, rng.NormFloat64()*math.Pow(10, float64(rng.IntN(9)-4)))
	}
	f.Add(wordBytes(normal...), uint16(3000), uint64(1), uint8(20))
	f.Add(wordBytes(-1, -2.5, -1e-3, -7e9, -inf), uint16(1500), uint64(2), uint8(30))
	f.Add(wordBytes(-1, -0.5, 0, 0.5, 1, 1.5), uint16(2000), uint64(3), uint8(0))
	f.Add(wordBytes(-1, nz, 0, 1, 2), uint16(1200), uint64(4), uint8(0))
	f.Add(wordBytes(-1, nz, 0, 1, 2), uint16(600), uint64(5), uint8(0))
	f.Add(wordBytes(nz, 0), uint16(1100), uint64(6), uint8(40))
	f.Add(wordBytes(0, 3), uint16(1100), uint64(7), uint8(40))
	f.Add(wordBytes(nz, -3), uint16(1100), uint64(8), uint8(40))
	f.Add(wordBytes(nan1, nan2, -inf, inf, 1, -1), uint16(1100), uint64(9), uint8(0))
	f.Add(wordBytes(math.NaN(), 2, 3), uint16(40), uint64(10), uint8(8))
	f.Add(wordBytes(5), uint16(2048), uint64(11), uint8(0))
	f.Add(wordBytes(1, 2), uint16(1023), uint64(12), uint8(52))
	f.Add(wordBytes(1, 2), uint16(1024), uint64(13), uint8(52))
	f.Fuzz(func(t *testing.T, words []byte, n uint16, seed uint64, jitter uint8) {
		if len(words) > 8*256 {
			words = words[:8*256]
		}
		xs := sortedCopyInput(words, n, seed, jitter)
		in := append([]float64(nil), xs...)
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := SortedCopy(xs)
		if len(got) != len(want) {
			t.Fatalf("SortedCopy of %d values returned %d", len(want), len(got))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: SortedCopy[%d] = %v (%#x), sort.Float64s gives %v (%#x)",
					len(xs), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("SortedCopy mutated its input at %d", i)
			}
		}
	})
}

var benchSorted []float64

// BenchmarkSortedCopy times the sort behind every sorted view on a
// perfbench-sized set: 31,252 hotspot exec_time samples.
func BenchmarkSortedCopy(b *testing.B) {
	xs := testsamples.SimExecTimes(b, "hotspot", "machine1", 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSorted = SortedCopy(xs)
	}
}

// BenchmarkRadixCutoff times radixSort against sort.Float64s on normal
// samples around radixCutoff, the measurement the cutoff rests on.
func BenchmarkRadixCutoff(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{radixCutoff / 2, radixCutoff * 3 / 4, radixCutoff, radixCutoff * 2} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.01 + 0.001*r.NormFloat64()
		}
		s := make([]float64, n)
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(s, xs)
				radixSort(s)
			}
		})
		b.Run(fmt.Sprintf("pdqsort/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(s, xs)
				sort.Float64s(s)
			}
		})
	}
}
