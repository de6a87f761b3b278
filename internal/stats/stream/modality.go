package stream

import "sharp/internal/stats"

// Modality is the incremental mode-count accumulator behind the
// modality-stability stopping rule. It couples the sorted-multiset
// order statistics (for the Silverman IQR and the sorted view the KDE
// needs) with a reusable stats.Analyzer, so each convergence check is a
// single linear-binned density pass over warm buffers:
//
//	Add    O(log n) search + memmove (the OrderStats insert)
//	Count  O(n + m·W) scatter+convolve, zero steady-state allocations
//
// The Analyzer's Gaussian stencil is rebuilt only when the Silverman
// bandwidth or the data range moves enough to change the bin-step-to-
// bandwidth ratio; between checks both drift slowly, so the stencil and the
// grid/bin buffers are reused as-is. A (bandwidth, n) memo additionally
// answers repeated queries at an unchanged state for free.
//
// Counts are produced by the same Analyzer path as stats.CountModes /
// stats.CountModesSortedBandwidth, so stop decisions are differential-tested
// against the exact-KDE reference in internal/stopping.
type Modality struct {
	order OrderStats
	an    stats.Analyzer

	memoN     int
	memoBW    float64
	memoModes int
	memoValid bool
}

// Add inserts the next observation.
func (m *Modality) Add(x float64) {
	m.order.Add(x)
	m.memoValid = false
}

// IQR returns the interquartile range of the multiset, bit-identical to
// stats.IQR (the Silverman bandwidth input).
func (m *Modality) IQR() float64 { return m.order.IQR() }

// Count returns the number of KDE density modes at the given bandwidth,
// with SHARP's default detection parameters. It matches
// stats.CountModesSortedBandwidth over the same multiset and bandwidth.
func (m *Modality) Count(bw float64) int {
	n := m.order.N()
	if m.memoValid && bw == m.memoBW && n == m.memoN {
		return m.memoModes
	}
	var c int
	sorted := m.order.Sorted()
	switch {
	case n == 0:
		c = 0
	case sorted[0] == sorted[n-1]:
		c = 1
	default:
		c = m.an.CountModesSorted(sorted, bw)
	}
	m.memoN, m.memoBW, m.memoModes, m.memoValid = n, bw, c, true
	return c
}
