package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// sameInterval reports whether two intervals carry the same bits.
func sameInterval(a, b Interval) bool {
	return math.Float64bits(a.Low) == math.Float64bits(b.Low) &&
		math.Float64bits(a.High) == math.Float64bits(b.High) &&
		math.Float64bits(a.Level) == math.Float64bits(b.Level)
}

// sameUpToNaN is sameInterval with any NaN endpoint matching any NaN.
func sameUpToNaN(a, b Interval) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(a.Low, b.Low) && same(a.High, b.High) && same(a.Level, b.Level)
}

// TestBootstrapMeanCIMatchesGeneric holds the fused mean kernel to
// BootstrapCI(..., Mean) and to the serial bootstrapReference oracle, bit
// for bit, at every worker count. The sizes cover IntN's power-of-two mask
// (1, 2, 256) and its multiply-and-reject path (7, 300, 31252); the
// resample counts include fewer resamples than workers.
func TestBootstrapMeanCIMatchesGeneric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	levels := []float64{0.9, 0.95, 0.99}
	for _, n := range []int{1, 2, 7, 256, 300, 31252} {
		xs := benchData(n)
		for _, resamples := range []int{1, 3, 499, 500} {
			boots := bootstrapReference(rand.New(rand.NewPCG(3, 4)), xs, resamples, Mean)
			for _, level := range levels {
				alpha := 1 - level
				want := Interval{
					Low:   QuantileSorted(boots, alpha/2),
					High:  QuantileSorted(boots, 1-alpha/2),
					Level: level,
				}
				generic := BootstrapCI(rand.New(rand.NewPCG(3, 4)), xs, resamples, level, Mean)
				if !sameInterval(generic, want) {
					t.Fatalf("n %d R %d level %v: BootstrapCI %+v, reference %+v", n, resamples, level, generic, want)
				}
				for _, procs := range []int{1, 2, 7} {
					runtime.GOMAXPROCS(procs)
					got := BootstrapMeanCI(rand.New(rand.NewPCG(3, 4)), xs, resamples, level)
					if !sameInterval(got, want) {
						t.Errorf("n %d R %d level %v GOMAXPROCS %d: BootstrapMeanCI %+v, want %+v",
							n, resamples, level, procs, got, want)
					}
				}
			}
		}
	}
}

// TestBootstrapMeanCIDrawsOneSeed checks BootstrapMeanCI advances rng by
// exactly one draw, and leaves it untouched on empty input.
func TestBootstrapMeanCIDrawsOneSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	BootstrapMeanCI(rng, benchData(50), 100, 0.95)
	after := rng.Uint64()
	ref := rand.New(rand.NewPCG(7, 8))
	ref.Uint64()
	if want := ref.Uint64(); after != want {
		t.Errorf("rng advanced by more than one draw: next %x, want %x", after, want)
	}

	if ci := BootstrapMeanCI(rng, nil, 100, 0.9); ci != (Interval{Level: 0.9}) {
		t.Errorf("empty xs: CI %+v, want the zero interval at level 0.9", ci)
	}
	if want := ref.Uint64(); rng.Uint64() != want {
		t.Error("empty xs advanced rng")
	}
}

// floatBytes encodes xs as the little-endian float64 words
// FuzzBootstrapMeanCI decodes.
func floatBytes(xs ...float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// FuzzBootstrapMeanCI holds the fused kernel to the generic buffer + Mean
// path bit for bit on raw float64 words: ±0, NaN, ±Inf, and magnitudes
// far enough apart (1e300 beside 1e-300) that Kahan's compensation term
// changes the sum. pow2 cuts the sample to a power-of-two length so both
// index reductions run.
//
// One exception: Go does not specify which NaN an operation on two NaNs
// returns (amd64's ADDSD keeps its destination operand's), and the two
// loops need not pick the same register as the destination of sum + y.
// So on a sample holding a NaN, whose payload can then meet the default
// NaN of Inf - Inf, a NaN endpoint matches any NaN; both print as "NaN".
func FuzzBootstrapMeanCI(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	rng := rand.New(rand.NewPCG(47, 53))
	random := make([]byte, 8*97)
	for i := range random {
		random[i] = byte(rng.IntN(256))
	}
	magnitudes := []float64{1e300, 1e-300, -1e300, 2.5e-300, 1e16, 1, -1e16, 0.5}
	mixed := make([]float64, 300)
	for i := range mixed {
		mixed[i] = magnitudes[i%len(magnitudes)] * (1 + float64(i%7)/8)
	}
	f.Add(random, uint8(20), uint8(1), false)
	f.Add(random, uint8(20), uint8(0), true)
	f.Add(floatBytes(mixed...), uint8(31), uint8(2), false)
	f.Add(floatBytes(mixed...), uint8(31), uint8(1), true)
	f.Add(floatBytes(0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1, 3), uint8(9), uint8(1), false)
	f.Add(floatBytes(1, nan, 2, 3), uint8(5), uint8(0), false)
	f.Add(floatBytes(inf, -inf, 1, 2, 5), uint8(7), uint8(2), false)
	f.Add(floatBytes(1e16, 1, -1e16, 1, 3.5), uint8(12), uint8(1), true)
	f.Add(floatBytes(42), uint8(0), uint8(1), false)
	levels := []float64{0.9, 0.95, 0.99}
	f.Fuzz(func(t *testing.T, data []byte, r, lv uint8, pow2 bool) {
		xs := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8 && len(xs) < 1024; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if pow2 && len(xs) > 0 {
			xs = xs[:1<<(bits.Len(uint(len(xs)))-1)]
		}
		resamples := 1 + int(r)%40
		level := levels[int(lv)%len(levels)]
		got := BootstrapMeanCI(rand.New(rand.NewPCG(5, 6)), xs, resamples, level)
		want := BootstrapCI(rand.New(rand.NewPCG(5, 6)), xs, resamples, level, Mean)
		if !sameInterval(got, want) && !(slices.ContainsFunc(xs, math.IsNaN) && sameUpToNaN(got, want)) {
			t.Fatalf("n %d R %d level %v: BootstrapMeanCI %+v (%x, %x), BootstrapCI %+v (%x, %x)",
				len(xs), resamples, level, got, math.Float64bits(got.Low), math.Float64bits(got.High),
				want, math.Float64bits(want.Low), math.Float64bits(want.High))
		}
	})
}
