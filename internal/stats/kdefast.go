package stats

import (
	"math"
	"sync"
)

// SHARP's default mode-detection parameters (§VI-A): density on a 256-point
// grid, peaks at >= 15% of the global maximum, separated by a >= 25% valley.
const (
	modeGridSize = 256
	modeMinProm  = 0.15
	modeMinDip   = 0.25
)

// fastMaxBins caps the linear-binning refinement of the evaluation grid.
// When the Silverman bandwidth is so small relative to the data range that
// honoring binStep <= bw/2 would need more bins than this, the Analyzer
// falls back to the exact two-pointer grid — in that regime each grid node's
// kernel window holds only a handful of points, so the exact path is itself
// cheap.
const fastMaxBins = 1 << 15

// kdeNorm is 1/sqrt(2*pi), the Gaussian kernel normalization.
const kdeNorm = 0.3989422804014327

// Analyzer is a reusable density-analysis engine: it owns the grid, bin and
// kernel-stencil scratch buffers that mode counting needs, so steady-state
// callers (the modality stopping rule, the classifier, the Fig. 4 census)
// perform zero allocations per evaluation.
//
// The fast path is a Silverman-style linear-binned estimator: the n data
// points are scattered once onto a refinement of the evaluation grid with
// linear (two-bin) weight splitting, and the density at each grid node is a
// discrete convolution with a precomputed truncated-Gaussian stencil —
// O(n + m·W) with W the kernel width in bins, instead of the O(m·window)
// exp-evaluations of the exact path. The stencil is cached across calls and
// only rebuilt when the bandwidth-to-bin-step ratio moves (between stopping
// checks it drifts slowly, so rebuilds are rare and cost ~W exps).
//
// An Analyzer is not safe for concurrent use; the package-level CountModes
// helpers draw from an internal pool.
type Analyzer struct {
	gxs, gys []float64 // evaluation grid buffers
	bins     []float64 // linear-binned point mass on the refined grid
	stencil  []float64 // truncated-Gaussian kernel at bin offsets 0..W

	// stencil cache key: the stencil depends only on binStep/bandwidth.
	stencilRatio float64
	stencilW     int
}

// ensureGrid sizes the evaluation-grid buffers for m nodes.
func (a *Analyzer) ensureGrid(m int) {
	if cap(a.gxs) < m {
		a.gxs = make([]float64, m)
		a.gys = make([]float64, m)
	}
	a.gxs = a.gxs[:m]
	a.gys = a.gys[:m]
}

// FastGridSorted evaluates the KDE of ascending-sorted data with bandwidth
// bw on m evenly spaced nodes spanning the data plus 3 bandwidths of margin
// (the same abscissae as KDE.Grid). It returns views into the Analyzer's
// scratch buffers — valid until the next call — and ok=false when the
// required bin resolution exceeds fastMaxBins (caller should fall back to
// the exact path).
func (a *Analyzer) FastGridSorted(sorted []float64, bw float64, m int) (xs, ys []float64, ok bool) {
	if m < 2 {
		m = 2
	}
	if bw <= 0 {
		bw = 1e-9
	}
	a.ensureGrid(m)
	xs, ys = a.gxs, a.gys
	n := len(sorted)
	if n == 0 {
		for i := range xs {
			xs[i], ys[i] = 0, 0
		}
		return xs, ys, true
	}
	lo := sorted[0] - 3*bw
	hi := sorted[n-1] + 3*bw
	step := (hi - lo) / float64(m-1)
	// Refine the grid until the bin step is at most bw/2: linear binning has
	// second-order accuracy, so a half-bandwidth bin keeps the density error
	// far below the 15%/25% peak-detection thresholds.
	r := 1
	if step > bw/2 {
		rr := math.Ceil(2 * step / bw)
		if rr > float64(fastMaxBins) {
			return nil, nil, false
		}
		r = int(rr)
	}
	nbins := (m-1)*r + 1
	if nbins > fastMaxBins {
		return nil, nil, false
	}
	binStep := step / float64(r)
	// Kernel stencil reach in bins, honoring the same 8-bandwidth truncation
	// as the exact path. Beyond the grid the bins are empty, so clamp.
	w := int(8*bw/binStep) + 1
	if w > nbins {
		w = nbins
	}
	ratio := binStep / bw
	if a.stencilW != w || a.stencilRatio != ratio {
		if cap(a.stencil) < w+1 {
			a.stencil = make([]float64, w+1)
		}
		a.stencil = a.stencil[:w+1]
		for d := 0; d <= w; d++ {
			u := float64(d) * ratio
			if u > 8 {
				a.stencil[d] = 0
			} else {
				a.stencil[d] = math.Exp(-0.5 * u * u)
			}
		}
		a.stencilRatio, a.stencilW = ratio, w
	}
	// Scatter: linear binning splits each point's unit mass between the two
	// surrounding bin nodes, preserving total mass and first moments.
	if cap(a.bins) < nbins {
		a.bins = make([]float64, nbins)
	}
	bins := a.bins[:nbins]
	for i := range bins {
		bins[i] = 0
	}
	invBin := 1 / binStep
	for _, v := range sorted {
		p := (v - lo) * invBin
		j := int(p)
		if j < 0 {
			j = 0
		}
		if j >= nbins-1 {
			bins[nbins-1]++
			continue
		}
		f := p - float64(j)
		bins[j] += 1 - f
		bins[j+1] += f
	}
	// Convolve at the m output nodes (every r-th bin).
	scale := kdeNorm / bw / float64(n)
	stencil := a.stencil
	for g := 0; g < m; g++ {
		c := g * r
		sum := bins[c] * stencil[0]
		for d := 1; d <= w; d++ {
			var s float64
			if c-d >= 0 {
				s = bins[c-d]
			}
			if c+d < nbins {
				s += bins[c+d]
			}
			sum += s * stencil[d]
		}
		xs[g] = lo + float64(g)*step
		ys[g] = sum * scale
	}
	return xs, ys, true
}

// GridSorted evaluates the density on m grid nodes, preferring the binned
// fast path and falling back to the exact two-pointer sweep when the
// resolution cap is hit. The returned slices are views into the Analyzer's
// scratch buffers.
func (a *Analyzer) GridSorted(sorted []float64, bw float64, m int) (xs, ys []float64) {
	if xs, ys, ok := a.FastGridSorted(sorted, bw, m); ok {
		return xs, ys
	}
	return a.exactGridSorted(sorted, bw, m)
}

// exactGridSorted is the allocation-free exact path: KDE.GridInto on the
// Analyzer's buffers.
func (a *Analyzer) exactGridSorted(sorted []float64, bw float64, m int) (xs, ys []float64) {
	if m < 2 {
		m = 2
	}
	a.ensureGrid(m)
	k := KDE{data: sorted, Bandwidth: bw}
	if k.Bandwidth <= 0 {
		k.Bandwidth = 1e-9
	}
	return k.GridInto(a.gxs, a.gys)
}

// CountModesSorted counts density modes of ascending-sorted data at the
// given bandwidth with SHARP's default detection parameters, reusing the
// Analyzer's buffers (zero steady-state allocations).
func (a *Analyzer) CountModesSorted(sorted []float64, bw float64) int {
	return a.CountModesSortedParams(sorted, bw, modeMinProm, modeMinDip)
}

// CountModesSortedParams is CountModesSorted with explicit peak-detection
// parameters.
func (a *Analyzer) CountModesSortedParams(sorted []float64, bw float64, minProm, minDip float64) int {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if sorted[0] == sorted[n-1] {
		return 1
	}
	_, ys := a.GridSorted(sorted, bw, modeGridSize)
	return countPeaks(ys, minProm, minDip)
}

// countPeaks is findPeaks reduced to a streaming count: identical candidate
// collection (plateau-aware strict local maxima), prominence filter and
// valley-merge logic, but tracking only the last kept peak — no slices, no
// allocations. Property-tested equal to len(findPeaks(...)).
func countPeaks(ys []float64, minProm, minDip float64) int {
	n := len(ys)
	if n == 0 {
		return 0
	}
	global := 0.0
	for _, y := range ys {
		if y > global {
			global = y
		}
	}
	if global == 0 {
		return 0
	}
	count := 0
	havePrev := false
	prevIdx := 0
	prevY := 0.0
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
			y := ys[mid]
			if y >= minProm*global {
				if !havePrev {
					havePrev = true
					count = 1
					prevIdx, prevY = mid, y
				} else {
					valley := y
					for k := prevIdx; k <= mid; k++ {
						if ys[k] < valley {
							valley = ys[k]
						}
					}
					lower := math.Min(prevY, y)
					if valley <= (1-minDip)*lower {
						count++
						prevIdx, prevY = mid, y
					} else if y > prevY {
						prevIdx, prevY = mid, y // same mode, taller summit
					}
				}
			}
		}
		i = j + 1
	}
	return count
}

// analyzerPool backs the package-level CountModes helpers so concurrent
// callers (the parallel experiment runner fans mode censuses across
// workers) reuse warm buffers without sharing them.
var analyzerPool = sync.Pool{New: func() any { return new(Analyzer) }}

func getAnalyzer() *Analyzer  { return analyzerPool.Get().(*Analyzer) }
func putAnalyzer(a *Analyzer) { analyzerPool.Put(a) }
