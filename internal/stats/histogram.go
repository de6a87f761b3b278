package stats

import (
	"fmt"
	"math"
)

// BinRule selects a histogram bin-width rule. The paper (§V-A2) chooses
// "the minimum bin width between the Sturges method and the
// Freedman-Diaconis rule"; that policy is BinMinWidth.
type BinRule int

// Supported binning rules.
const (
	// BinSturges uses ceil(log2 n) + 1 bins.
	BinSturges BinRule = iota
	// BinFreedmanDiaconis uses width 2*IQR/n^(1/3).
	BinFreedmanDiaconis
	// BinMinWidth takes the smaller width of Sturges and Freedman-Diaconis,
	// i.e. the finer-grained of the two — the paper's choice for Fig. 4.
	BinMinWidth
	// BinScott uses width 3.49*s/n^(1/3).
	BinScott
)

// String implements fmt.Stringer.
func (r BinRule) String() string {
	switch r {
	case BinSturges:
		return "sturges"
	case BinFreedmanDiaconis:
		return "freedman-diaconis"
	case BinMinWidth:
		return "min(sturges,fd)"
	case BinScott:
		return "scott"
	default:
		return fmt.Sprintf("BinRule(%d)", int(r))
	}
}

// Histogram is a fixed-width binned view of a sample.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin i covers [Edges[i], Edges[i+1]),
	// with the final bin closed on the right.
	Edges []float64
	// Counts holds the number of observations per bin.
	Counts []int
	// N is the total number of observations.
	N int
}

// BinWidth returns the bin width implied by rule for the data. It returns 0
// for degenerate data (constant or fewer than 2 points), meaning "one bin".
func BinWidth(xs []float64, rule BinRule) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	s := SortedCopy(xs)
	span := s[len(s)-1] - s[0]
	if span == 0 {
		return 0
	}
	sturges := func() float64 {
		k := math.Ceil(math.Log2(n)) + 1
		return span / k
	}
	fd := func() float64 {
		iqr := QuantileSorted(s, 0.75) - QuantileSorted(s, 0.25)
		if iqr == 0 {
			return 0
		}
		return 2 * iqr / math.Cbrt(n)
	}
	switch rule {
	case BinSturges:
		return sturges()
	case BinFreedmanDiaconis:
		if w := fd(); w > 0 {
			return w
		}
		return sturges()
	case BinMinWidth:
		w := sturges()
		if f := fd(); f > 0 && f < w {
			w = f
		}
		return w
	case BinScott:
		sd := StdDev(s)
		if sd == 0 {
			return 0
		}
		return 3.49 * sd / math.Cbrt(n)
	default:
		return sturges()
	}
}

// NewHistogram bins xs using the given rule. Degenerate data produces a
// single bin.
func NewHistogram(xs []float64, rule BinRule) *Histogram {
	return NewHistogramWidth(xs, BinWidth(xs, rule))
}

// NewHistogramWidth bins xs with an explicit bin width; width <= 0 yields a
// single bin spanning the data.
func NewHistogramWidth(xs []float64, width float64) *Histogram {
	h := &Histogram{N: len(xs)}
	if len(xs) == 0 {
		h.Edges = []float64{0, 1}
		h.Counts = []int{0}
		return h
	}
	lo, hi := Min(xs), Max(xs)
	if width <= 0 || hi == lo {
		h.Edges = []float64{lo, hi + 1e-12}
		h.Counts = []int{len(xs)}
		return h
	}
	nbins := int(math.Ceil((hi - lo) / width))
	if nbins < 1 {
		nbins = 1
	}
	const maxBins = 4096
	if nbins > maxBins {
		nbins = maxBins
		width = (hi - lo) / float64(nbins)
	}
	h.Edges = make([]float64, nbins+1)
	for i := range h.Edges {
		h.Edges[i] = lo + float64(i)*width
	}
	h.Edges[nbins] = math.Max(h.Edges[nbins], hi)
	h.Counts = make([]int, nbins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= nbins {
			i = nbins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// MaxCount returns the largest bin count.
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Peaks counts local maxima in the smoothed bin counts whose height is at
// least minProm times the tallest bin. It is a cheap modality estimate used
// alongside the KDE-based one.
func (h *Histogram) Peaks(minProm float64) int {
	c := smooth3(h.Counts)
	max := 0.0
	for _, v := range c {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 0
	}
	thresh := minProm * max
	peaks := 0
	for i := range c {
		v := c[i]
		if v < thresh {
			continue
		}
		left := i == 0 || c[i-1] < v
		right := i == len(c)-1 || c[i+1] <= v
		// Plateaus count once: require strictly greater than the previous.
		if left && right {
			peaks++
		}
	}
	return peaks
}

// smooth3 applies a 3-point moving average to integer counts.
func smooth3(counts []int) []float64 {
	n := len(counts)
	out := make([]float64, n)
	for i := range counts {
		sum, k := 0, 0
		for j := i - 1; j <= i+1; j++ {
			if j >= 0 && j < n {
				sum += counts[j]
				k++
			}
		}
		out[i] = float64(sum) / float64(k)
	}
	return out
}
