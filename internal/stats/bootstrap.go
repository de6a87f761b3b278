package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
)

// BootstrapCI returns the percentile bootstrap confidence interval for stat
// at the given level. It is distribution-free, which matters for the
// multimodal and heavy-tailed performance data SHARP targets.
//
// Determinism contract: the interval is a function of (rng state, xs,
// resamples, level, stat) alone. BootstrapCI takes exactly one Uint64 from
// rng (none when xs is empty) as a seed. Resample r draws its len(xs)
// indices from its own rand.PCG, whose two seed words are outputs 2r+1 and
// 2r+2 of a SplitMix64 generator started at that seed, and reduces them to
// [0, len(xs)) exactly as rand.Rand.IntN does. The resamples are split
// across runtime.GOMAXPROCS(0) goroutines, but since no resample reads
// another's generator, neither the worker count nor the split can change a
// bit of the result.
//
// stat is called concurrently, each call on a distinct buffer; it must not
// mutate shared state. The buffer is reused after stat returns, so stat
// must not retain it. The two endpoints are picked from the resample
// statistics by expected-O(R) quickselect (quantileSelect).
func BootstrapCI(rng *rand.Rand, xs []float64, resamples int, level float64, stat func([]float64) float64) Interval {
	return bootstrap(rng, xs, resamples, level, func(seed uint64, out []float64, first int) {
		resampleRange(xs, seed, out, first, stat)
	})
}

// BootstrapMeanCI is BootstrapCI(rng, xs, resamples, level, Mean), bit for
// bit and under the same determinism contract, without the resample
// buffer: each resample's draws are Kahan-summed as they are drawn
// (meanRange).
func BootstrapMeanCI(rng *rand.Rand, xs []float64, resamples int, level float64) Interval {
	return bootstrap(rng, xs, resamples, level, func(seed uint64, out []float64, first int) {
		meanRange(xs, seed, out, first)
	})
}

// bootstrap is the driver behind BootstrapCI and BootstrapMeanCI: it draws
// the seed, splits the resamples across GOMAXPROCS workers and selects the
// endpoints. kernel(seed, out, first) sets out[i] to the statistic of
// resample first+i.
func bootstrap(rng *rand.Rand, xs []float64, resamples int, level float64, kernel func(seed uint64, out []float64, first int)) Interval {
	if len(xs) == 0 {
		return Interval{Level: level}
	}
	seed := rng.Uint64()
	boots := make([]float64, resamples)
	workers := min(runtime.GOMAXPROCS(0), resamples)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*resamples/workers, (w+1)*resamples/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(seed, boots[lo:hi], lo)
		}()
	}
	wg.Wait()
	alpha := 1 - level
	low := quantileSelect(boots, alpha/2)
	high := quantileSelect(boots, 1-alpha/2)
	return Interval{Low: low, High: high, Level: level}
}

// resampleRange fills out[i] with stat of resample first+i, reusing one
// len(xs) buffer for all of them.
func resampleRange(xs []float64, seed uint64, out []float64, first int, stat func([]float64) float64) {
	n := uint64(len(xs))
	buf := make([]float64, n)
	var src rand.PCG
	for i := range out {
		src.Seed(resampleSeed(seed, first+i))
		if n&(n-1) == 0 {
			// Power of two: IntN masks instead of multiplying.
			for j := range buf {
				buf[j] = xs[src.Uint64()&(n-1)]
			}
		} else {
			for j := range buf {
				hi, lo := bits.Mul64(src.Uint64(), n)
				if lo < n {
					hi = redraw(&src, n, hi, lo)
				}
				buf[j] = xs[hi]
			}
		}
		out[i] = stat(buf)
	}
}

// meanRange fills out[i] with the mean of resample first+i, drawing the
// same indices as resampleRange and applying Sum's Kahan update to each
// value as it is drawn: the same operations in the same order as Mean of
// the gathered buffer, so the same bits.
func meanRange(xs []float64, seed uint64, out []float64, first int) {
	n := uint64(len(xs))
	var src rand.PCG
	for i := range out {
		src.Seed(resampleSeed(seed, first+i))
		var sum, c float64
		if n&(n-1) == 0 {
			for range n {
				y := xs[src.Uint64()&(n-1)] - c
				t := sum + y
				c = (t - sum) - y
				sum = t
			}
		} else {
			for range n {
				hi, lo := bits.Mul64(src.Uint64(), n)
				if lo < n {
					hi = redraw(&src, n, hi, lo)
				}
				y := xs[hi] - c
				t := sum + y
				c = (t - sum) - y
				sum = t
			}
		}
		out[i] = sum / float64(n)
	}
}

// redraw finishes Lemire's multiply-and-reject bounded draw, the reduction
// rand.Rand.IntN applies when n is not a power of two: the caller takes
// hi, lo = x·n for a fresh x and keeps hi unless lo < n, which is rare
// enough to leave the division here, out of the inlined loop.
func redraw(src *rand.PCG, n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(src.Uint64(), n)
	}
	return hi
}

// resampleSeed returns the two PCG seed words of resample r: outputs 2r+1
// and 2r+2 of a SplitMix64 generator started at seed, computed directly
// rather than by stepping the generator. SplitMix64's finalizer spreads
// neighbouring resample indices over the whole PCG state space, so the
// resample streams do not overlap in practice.
func resampleSeed(seed uint64, r int) (uint64, uint64) {
	const gamma uint64 = 0x9e3779b97f4a7c15
	k := 2 * uint64(r)
	return splitMix64(seed + (k+1)*gamma), splitMix64(seed + (k+2)*gamma)
}

// splitMix64 is SplitMix64's output finalizer (Steele, Lea and Flood 2014).
func splitMix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// quantileSelect returns the Hyndman-Fan type-7 p-quantile of xs — the same
// value QuantileSorted(SortedCopy(xs), p) yields — but finds the (at most
// two) order statistics the interpolation touches by in-place quickselect
// instead of sorting. xs is reordered.
func quantileSelect(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return xs[0]
	}
	h := p * float64(n-1)
	if h <= 0 {
		return selectKth(xs, 0)
	}
	if h >= float64(n-1) {
		return selectKth(xs, n-1)
	}
	i := int(math.Floor(h))
	frac := h - float64(i)
	lo := selectKth(xs, i)
	if frac == 0 || i+1 >= n {
		return lo
	}
	// selectKth leaves xs[i+1:] >= xs[i], so the next order statistic is
	// the minimum of that suffix.
	hi := xs[i+1]
	for _, v := range xs[i+2:] {
		if v < hi {
			hi = v
		}
	}
	return lo*(1-frac) + hi*frac
}

// selectKth partially orders xs in place so that xs[k] is the k-th smallest
// element (0-based), everything before it is <= xs[k] and everything after
// is >= xs[k], and returns xs[k]. Median-of-three pivoting keeps the
// expected cost linear even on sorted or constant inputs (bootstrap
// statistics of low-variance samples are near-constant).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// SplitHalves splits xs into its first and second half (the comparison the
// paper's KS stopping rule performs on the run prefix, §V-C).
func SplitHalves(xs []float64) (first, second []float64) {
	mid := len(xs) / 2
	return xs[:mid], xs[mid:]
}

// RandomSplit partitions xs into two halves uniformly at random — the
// alternative split policy evaluated in the ablation benches.
func RandomSplit(rng *rand.Rand, xs []float64) (a, b []float64) {
	idx := rng.Perm(len(xs))
	mid := len(xs) / 2
	a = make([]float64, 0, mid)
	b = make([]float64, 0, len(xs)-mid)
	for i, j := range idx {
		if i < mid {
			a = append(a, xs[j])
		} else {
			b = append(b, xs[j])
		}
	}
	return a, b
}
