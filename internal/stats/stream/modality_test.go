package stream

import (
	"math"
	"math/rand/v2"
	"testing"

	"sharp/internal/stats"
)

// TestModalityMatchesBatchCounts drives the accumulator over growing
// prefixes and asserts Count agrees with the batch counters (fast and exact)
// at every checkpoint.
func TestModalityMatchesBatchCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 8))
	streams := map[string]func() float64{
		"normal": func() float64 { return 100 + 5*rng.NormFloat64() },
		"bimodal": func() float64 {
			if rng.Float64() < 0.4 {
				return 60 + 2*rng.NormFloat64()
			}
			return 90 + 2*rng.NormFloat64()
		},
		"heavy": func() float64 { return 10 + 2/math.Pow(1-rng.Float64(), 0.7) },
		"ties":  func() float64 { return math.Floor(6 * rng.Float64()) },
	}
	for name, next := range streams {
		var m Modality
		prefix := make([]float64, 0, 600)
		for i := 0; i < 600; i++ {
			x := next()
			m.Add(x)
			prefix = append(prefix, x)
			if (i+1)%25 != 0 {
				continue
			}
			bw := stats.SilvermanFromStats(len(prefix), stats.StdDev(prefix), m.IQR())
			got := m.Count(bw)
			if want := stats.CountModesSortedBandwidth(m.Sorted(), bw); got != want {
				t.Fatalf("%s/n=%d: Modality.Count=%d batch fast=%d", name, i+1, got, want)
			}
			if want := stats.CountModesExact(prefix); got != want {
				t.Fatalf("%s/n=%d: Modality.Count=%d exact=%d", name, i+1, got, want)
			}
		}
	}
}

// TestModalityIQRMatchesBatch pins the Silverman input equivalence.
func TestModalityIQRMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	var m Modality
	var xs []float64
	for i := 0; i < 300; i++ {
		x := rng.NormFloat64() * 7
		m.Add(x)
		xs = append(xs, x)
		if got, want := m.IQR(), stats.IQR(xs); got != want {
			t.Fatalf("n=%d: IQR=%x batch=%x", i+1, got, want)
		}
	}
}

// TestModalityCountSteadyStateAllocs asserts the convergence check is
// allocation-free once the accumulator's buffers are warm — the memo is
// defeated by alternating bandwidths so every call runs the full binned
// density pass.
func TestModalityCountSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 2))
	var m Modality
	for i := 0; i < 500; i++ {
		m.Add(200 + 8*rng.NormFloat64())
	}
	bw := stats.SilvermanFromStats(m.N(), 8, m.IQR())
	m.Count(bw) // warm buffers
	allocs := testing.AllocsPerRun(100, func() {
		m.Count(bw * 1.02)
		m.Count(bw)
	})
	if allocs != 0 {
		t.Fatalf("warm Modality.Count allocates %.1f/op; want 0", allocs)
	}
}

// TestModalityMemo verifies repeated queries at an unchanged state are
// answered from the memo (and invalidated by Add).
func TestModalityMemo(t *testing.T) {
	var m Modality
	for i := 0; i < 100; i++ {
		m.Add(float64(i % 7))
	}
	bw := 0.5
	first := m.Count(bw)
	if !m.memoValid || m.memoModes != first {
		t.Fatalf("memo not populated after Count")
	}
	if got := m.Count(bw); got != first {
		t.Fatalf("memoized Count=%d want %d", got, first)
	}
	m.Add(3)
	if m.memoValid {
		t.Fatalf("memo not invalidated by Add")
	}
}

// Sorted returns the ascending view of the observations (shared; do not
// mutate, do not retain across Add).
func (m *Modality) Sorted() []float64 { return m.order.Sorted() }

// N returns the number of observations.
func (m *Modality) N() int { return m.order.N() }
