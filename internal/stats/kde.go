package stats

import (
	"math"
	"sort"
)

// KDE is a Gaussian kernel density estimator. SHARP uses it to detect the
// number of performance modes (§VI-A, Fig. 4's multimodality findings):
// local maxima of the estimated density are reported as modes.
type KDE struct {
	data      []float64
	Bandwidth float64
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9 * min(s, IQR/1.34) * n^(-1/5), robust to mild non-normality.
func SilvermanBandwidth(xs []float64) float64 {
	return SilvermanFromStats(len(xs), StdDev(xs), IQR(xs))
}

// SilvermanFromStats is SilvermanBandwidth computed from pre-aggregated
// inputs (sample count, standard deviation, interquartile range), for
// incremental callers that already maintain them.
func SilvermanFromStats(n int, s, iqr float64) float64 {
	if n < 2 {
		return 1
	}
	a := s
	if iqr > 0 && iqr/1.34 < a {
		a = iqr / 1.34
	}
	if a == 0 {
		return 1e-9 // degenerate (constant) data
	}
	return 0.9 * a * math.Pow(float64(n), -0.2)
}

// NewKDE builds a KDE with Silverman's bandwidth.
func NewKDE(xs []float64) *KDE {
	return NewKDEBandwidth(xs, SilvermanBandwidth(xs))
}

// NewKDEBandwidth builds a KDE with an explicit bandwidth (must be > 0).
func NewKDEBandwidth(xs []float64, bw float64) *KDE {
	return NewKDESorted(SortedCopy(xs), bw)
}

// NewKDESorted builds a KDE over already ascending-sorted data with an
// explicit bandwidth. The slice is retained, not copied — incremental
// callers (the modality stopping rule) pass the sorted view their
// order-statistics accumulator already maintains.
func NewKDESorted(sorted []float64, bw float64) *KDE {
	if bw <= 0 {
		bw = 1e-9
	}
	return &KDE{data: sorted, Bandwidth: bw}
}

// Eval returns the estimated density at x.
//
// The kernel support is truncated at |u| <= 8 bandwidths; since the data is
// sorted, binary search restricts the scan to the window that can contribute.
// The window is widened to 9 bandwidths so float rounding of the bounds can
// never exclude a point the exact |u| <= 8 test would keep: skipped points
// contribute exactly 0 to the sum, so the result is bit-identical to the
// full scan.
func (k *KDE) Eval(x float64) float64 {
	if len(k.data) == 0 {
		return 0
	}
	const norm = 0.3989422804014327 // 1/sqrt(2*pi)
	sum := 0.0
	inv := 1 / k.Bandwidth
	lo := sort.SearchFloat64s(k.data, x-9*k.Bandwidth)
	hi := sort.SearchFloat64s(k.data, x+9*k.Bandwidth)
	for _, xi := range k.data[lo:hi] {
		u := (x - xi) * inv
		if u > 8 || u < -8 {
			continue
		}
		sum += math.Exp(-0.5 * u * u)
	}
	return sum * norm * inv / float64(len(k.data))
}

// Grid evaluates the density on m evenly spaced points spanning the data
// plus 3 bandwidths of margin. It returns the x grid and densities.
func (k *KDE) Grid(m int) (xs, ys []float64) {
	if m < 2 {
		m = 2
	}
	return k.GridInto(make([]float64, m), make([]float64, m))
}

// GridInto is Grid writing into caller-provided buffers (len(xs) must equal
// len(ys) and be >= 2). Instead of a binary search per grid point it sweeps
// the sorted data once with a two-pointer sliding window: the grid abscissae
// are non-decreasing, so both window bounds only ever move right. The window
// bounds land on exactly the indices sort.SearchFloat64s would return and
// the per-point summation visits the same elements in the same order, so the
// densities are bit-identical to per-point Eval. It returns xs, ys.
func (k *KDE) GridInto(xs, ys []float64) ([]float64, []float64) {
	m := len(xs)
	if m != len(ys) || m < 2 {
		panic("stats: GridInto requires equal-length buffers of at least 2")
	}
	if len(k.data) == 0 {
		for i := range xs {
			xs[i], ys[i] = 0, 0
		}
		return xs, ys
	}
	const norm = 0.3989422804014327 // 1/sqrt(2*pi)
	n := len(k.data)
	lo := k.data[0] - 3*k.Bandwidth
	hi := k.data[n-1] + 3*k.Bandwidth
	step := (hi - lo) / float64(m-1)
	inv := 1 / k.Bandwidth
	nf := float64(n)
	wLo, wHi := 0, 0
	for i := range xs {
		x := lo + float64(i)*step
		xs[i] = x
		// Advance to the first index with data >= x-9bw / x+9bw: identical
		// to the binary searches in Eval because both targets increase with x.
		xl := x - 9*k.Bandwidth
		xr := x + 9*k.Bandwidth
		for wLo < n && k.data[wLo] < xl {
			wLo++
		}
		if wHi < wLo {
			wHi = wLo
		}
		for wHi < n && k.data[wHi] < xr {
			wHi++
		}
		sum := 0.0
		for _, xi := range k.data[wLo:wHi] {
			u := (x - xi) * inv
			if u > 8 || u < -8 {
				continue
			}
			sum += math.Exp(-0.5 * u * u)
		}
		// Same expression (and rounding) as Eval's return.
		ys[i] = sum * norm * inv / nf
	}
	return xs, ys
}

// Mode describes one detected density peak.
type Mode struct {
	// Location is the x position of the peak.
	Location float64
	// Height is the density at the peak.
	Height float64
	// Prominence is Height relative to the global density maximum (0..1].
	Prominence float64
}

// Modes finds local maxima of the density evaluated on gridSize points,
// keeping peaks whose height is at least minProm of the tallest peak and
// whose valley on both sides drops below (1 - minDip) of the peak height.
// The defaults used across SHARP are gridSize=256, minProm=0.15, minDip=0.25:
// a 25% valley requirement rejects the sampling wiggles a KDE shows on flat
// (uniform-like) densities while keeping genuinely separated performance
// modes, whose valleys are near zero.
func (k *KDE) Modes(gridSize int, minProm, minDip float64) []Mode {
	xs, ys := k.Grid(gridSize)
	return findPeaks(xs, ys, minProm, minDip)
}

// CountModes is a convenience wrapper around mode detection with SHARP's
// default parameters. It runs on the Analyzer fast path (linear-binned
// convolution with an exact-grid fallback, see kdefast.go); CountModesExact
// preserves the direct KDE-grid evaluation for differential testing.
func CountModes(data []float64) int {
	return CountModesParams(data, modeMinProm, modeMinDip)
}

// CountModesParams is CountModes with explicit peak-detection parameters
// (the classifier's tunable prominence/dip thresholds).
func CountModesParams(data []float64, minProm, minDip float64) int {
	return countModesView(data, SortedCopy(data), minProm, minDip)
}

// CountModesView is CountModes(xs) for a caller that already holds sorted,
// xs's ascending view (SortedCopy(xs)); it skips the sort. The bandwidth's
// standard deviation is summed in xs's order, so the count is CountModes'.
func CountModesView(xs, sorted []float64) int {
	return countModesView(xs, sorted, modeMinProm, modeMinDip)
}

func countModesView(xs, sorted []float64, minProm, minDip float64) int {
	if len(xs) == 0 {
		return 0
	}
	if Min(xs) == Max(xs) {
		return 1
	}
	bw := SilvermanFromStats(len(xs), StdDev(xs),
		QuantileSorted(sorted, 0.75)-QuantileSorted(sorted, 0.25))
	a := getAnalyzer()
	defer putAnalyzer(a)
	return a.CountModesSortedParams(sorted, bw, minProm, minDip)
}

// CountModesExact is the reference mode counter: the direct Gaussian-KDE
// grid evaluation (no binning). The fast path in CountModes is differential-
// and property-tested against it; use it when bit-exact densities matter
// more than speed.
func CountModesExact(data []float64) int {
	if len(data) == 0 {
		return 0
	}
	if Min(data) == Max(data) {
		return 1
	}
	return len(NewKDE(data).Modes(modeGridSize, modeMinProm, modeMinDip))
}

// CountModesSortedBandwidth is CountModes over already ascending-sorted data
// with a caller-supplied bandwidth. Given the bandwidth SilvermanBandwidth
// would compute for the same multiset, it returns exactly CountModes' answer
// while skipping the sort-copy — the incremental modality rule's fast path.
func CountModesSortedBandwidth(sorted []float64, bw float64) int {
	if len(sorted) == 0 {
		return 0
	}
	if sorted[0] == sorted[len(sorted)-1] {
		return 1
	}
	a := getAnalyzer()
	defer putAnalyzer(a)
	return a.CountModesSorted(sorted, bw)
}

// findPeaks locates prominent local maxima in a sampled curve. A candidate
// peak must (a) be a local max, (b) reach minProm of the global max, and
// (c) be separated from higher neighbors by a valley at least minDip deep
// relative to the lower peak.
func findPeaks(xs, ys []float64, minProm, minDip float64) []Mode {
	n := len(ys)
	if n == 0 {
		return nil
	}
	global := 0.0
	for _, y := range ys {
		if y > global {
			global = y
		}
	}
	if global == 0 {
		return nil
	}
	// Collect strict local maxima (plateau-aware).
	type cand struct {
		idx int
		y   float64
	}
	var cands []cand
	i := 0
	for i < n {
		j := i
		for j+1 < n && ys[j+1] == ys[i] {
			j++
		}
		leftUp := i == 0 || ys[i-1] < ys[i]
		rightDown := j == n-1 || ys[j+1] < ys[i]
		if leftUp && rightDown && ys[i] > 0 {
			mid := (i + j) / 2
			cands = append(cands, cand{mid, ys[mid]})
		}
		i = j + 1
	}
	// Filter by prominence threshold.
	var strong []cand
	for _, c := range cands {
		if c.y >= minProm*global {
			strong = append(strong, c)
		}
	}
	// Merge peaks not separated by a sufficiently deep valley: walk in x
	// order and keep a peak only if the minimum between it and the previous
	// kept peak dips below (1-minDip)*min(peak heights).
	var kept []cand
	for _, c := range strong {
		if len(kept) == 0 {
			kept = append(kept, c)
			continue
		}
		prev := kept[len(kept)-1]
		valley := c.y
		for k := prev.idx; k <= c.idx; k++ {
			if ys[k] < valley {
				valley = ys[k]
			}
		}
		lower := math.Min(prev.y, c.y)
		if valley <= (1-minDip)*lower {
			kept = append(kept, c)
		} else if c.y > prev.y {
			kept[len(kept)-1] = c // same mode, keep the taller summit
		}
	}
	modes := make([]Mode, len(kept))
	for i, c := range kept {
		modes[i] = Mode{Location: xs[c.idx], Height: c.y, Prominence: c.y / global}
	}
	return modes
}
