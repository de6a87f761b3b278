package perfmodel

import (
	"fmt"
	"math"

	"sharp/internal/machine"
	"sharp/internal/randx"
)

// Mode-structure presets. Separations are >= 5 combined sigmas so the KDE
// mode detector resolves them; spreads are sub-percent of the mean, which
// is the regime where NAMD misses shape changes (Fig. 5).
func unimodal(sigma float64) []ModeSpec {
	return []ModeSpec{{Offset: 1.0, Weight: 1, Sigma: sigma}}
}

func bimodal(sep, sigma, w1 float64) []ModeSpec {
	return []ModeSpec{
		{Offset: 1.0, Weight: w1, Sigma: sigma},
		{Offset: 1.0 + sep, Weight: 1 - w1, Sigma: sigma},
	}
}

func trimodal(sep, sigma float64) []ModeSpec {
	return []ModeSpec{
		{Offset: 1.0, Weight: 0.5, Sigma: sigma},
		{Offset: 1.0 + sep, Weight: 0.3, Sigma: sigma},
		{Offset: 1.0 + 2*sep, Weight: 0.2, Sigma: sigma},
	}
}

func quadmodal(sep, sigma float64) []ModeSpec {
	return []ModeSpec{
		{Offset: 1.0, Weight: 0.34, Sigma: sigma},
		{Offset: 1.0 + sep, Weight: 0.28, Sigma: sigma},
		{Offset: 1.0 + 2*sep, Weight: 0.22, Sigma: sigma},
		{Offset: 1.0 + 3*sep, Weight: 0.16, Sigma: sigma},
	}
}

// suite is the 20-benchmark model table (Table II order). The modality
// assignment reproduces Fig. 4's split on Machine 1: 6 unimodal (30%),
// 8 bimodal (40%), 4 trimodal (20%), 2 with four modes (10%).
var suite = []*Model{
	{
		Bench: "backprop", Params: "6553600", Base: 2.4,
		Modes:    bimodal(0.07, 0.008, 0.6),
		TailProb: 0.01, TailScale: 0.15, DayMeanJitter: 0.006,
	},
	{
		Bench: "backprop-CUDA", Params: "955360", CUDA: true, Base: 0.8,
		Modes:    unimodal(0.009),
		TailProb: 0.012, TailScale: 0.2, H100Speedup: 1.5, DayMeanJitter: 0.005,
	},
	{
		Bench: "bfs", Params: "graph1MW_6.txt", Base: 1.8,
		Modes:    bimodal(0.06, 0.007, 0.55),
		TailProb: 0.015, TailScale: 0.25, DayMeanJitter: 0,
	},
	{
		Bench: "bfs-CUDA", Params: "graph1MW_6.txt", CUDA: true, Base: 1.2,
		Modes:    bimodal(0.08, 0.008, 0.6),
		TailProb: 0.01, TailScale: 0.2, H100Speedup: 2.0, H100ExtraMode: true,
		DayMeanJitter: 0.005,
	},
	{
		Bench: "heartwall", Params: "test.avi, 20, 4", Base: 5.2,
		Modes:    unimodal(0.006),
		TailProb: 0.008, TailScale: 0.12, DayMeanJitter: 0.007,
	},
	{
		Bench: "heartwall-CUDA", Params: "test.avi, 100", CUDA: true, Base: 1.9,
		Modes:    bimodal(0.05, 0.006, 0.5),
		TailProb: 0.01, TailScale: 0.15, H100Speedup: 1.6, DayMeanJitter: 0,
	},
	{
		Bench: "hotspot", Params: "1024, 1024, 2, 4, temp_1024, power_1024", Base: 3.1,
		Modes:    trimodal(0.055, 0.006),
		TailProb: 0.01, TailScale: 0.2,
		DayMeanJitter: 0, DayModeFlip: true, // Fig. 5: mean-stable, modes flip
	},
	{
		Bench: "hotspot-CUDA", Params: "1024, 2, 4, temp_512, power_512", CUDA: true, Base: 0.9,
		Modes:    trimodal(0.06, 0.007),
		TailProb: 0.012, TailScale: 0.2, H100Speedup: 1.4, DayMeanJitter: 0.006,
	},
	{
		Bench: "leukocyte", Params: "5, 4, testfile.avi", Base: 7.5,
		Modes:    bimodal(0.065, 0.007, 0.55),
		TailProb: 0.008, TailScale: 0.15, DayMeanJitter: 0,
		Phases: []PhaseSpec{
			// Fig. 7: the detection phase is unimodal; the tracking phase
			// introduces the two modes seen in the total execution time.
			{Name: "detection_time", Share: 0.38, Modes: unimodal(0.010)},
			{Name: "tracking_time", Share: 0.62, Modes: bimodal(0.105, 0.009, 0.55)},
		},
	},
	{
		Bench: "srad", Params: "1000, 0.5, 502, 458, 4", Base: 4.0,
		Modes:    unimodal(0.007),
		TailProb: 0.01, TailScale: 0.15, DayMeanJitter: 0.006,
	},
	{
		Bench: "srad-CUDA", Params: "100000, 0.5, 502, 45", CUDA: true, Base: 1.1,
		Modes:    unimodal(0.008),
		TailProb: 0.01, TailScale: 0.18, H100Speedup: 1.2, DayMeanJitter: 0.005,
	},
	{
		Bench: "needle", Params: "20480, 10, 2", Base: 2.9,
		Modes:    bimodal(0.06, 0.007, 0.5),
		TailProb: 0.012, TailScale: 0.2, DayMeanJitter: 0,
	},
	{
		Bench: "needle-CUDA", Params: "20480, 10, 2", CUDA: true, Base: 1.4,
		Modes:    bimodal(0.07, 0.008, 0.6),
		TailProb: 0.01, TailScale: 0.18, H100Speedup: 1.7, DayMeanJitter: 0.006,
	},
	{
		Bench: "kmeans", Params: "4, kdd_cup", Base: 6.3,
		Modes:    trimodal(0.05, 0.006),
		TailProb: 0.01, TailScale: 0.15, DayMeanJitter: 0,
	},
	{
		Bench: "lavaMD", Params: "4, 10", Base: 3.7,
		Modes:    unimodal(0.006),
		TailProb: 0.008, TailScale: 0.12, DayMeanJitter: 0.005,
	},
	{
		Bench: "lavaMD-CUDA", Params: "100", CUDA: true, Base: 2.2,
		Modes:    unimodal(0.007),
		TailProb: 0.01, TailScale: 0.15, H100Speedup: 1.8, DayMeanJitter: 0.005,
	},
	{
		Bench: "lud", Params: "8000", Base: 8.2,
		Modes:    quadmodal(0.05, 0.006),
		TailProb: 0.008, TailScale: 0.15, DayMeanJitter: 0,
	},
	{
		Bench: "lud-CUDA", Params: "1024", CUDA: true, Base: 0.7,
		Modes:    trimodal(0.055, 0.006),
		TailProb: 0.012, TailScale: 0.2, H100Speedup: 1.3, DayMeanJitter: 0.005,
	},
	{
		Bench: "sc", Params: "10, 20, 256, 65536, 65536, 1000, none, 4", Base: 3.98,
		Modes:    bimodal(0.06, 0.007, 0.55),
		TailProb: 0.01, TailScale: 0.2, DayMeanJitter: 0,
	},
	{
		Bench: "sc-CUDA", Params: "10, 20, 256, 65536, 65536, 1000, none, 1", CUDA: true, Base: 1.6,
		Modes:    quadmodal(0.055, 0.006),
		TailProb: 0.01, TailScale: 0.18, H100Speedup: 1.5, DayMeanJitter: 0.006,
	},
}

// All returns the 20 benchmark models in Table II order. The returned
// models are shared; callers must not mutate them.
func All() []*Model { return suite }

// For returns the model for the named benchmark.
func For(bench string) (*Model, bool) {
	for _, m := range suite {
		if m.Bench == bench {
			return m, true
		}
	}
	return nil, false
}

// --- Phase decomposition (leukocyte, Fig. 7) ---

// PhaseGen samples a phase-decomposed benchmark: each draw yields the phase
// times and their total, which SHARP logs as separate metrics of the same
// run (§VI-A fine-grained analysis).
type PhaseGen struct {
	gens  []*Gen
	names []string
}

// PhaseSampler returns a PhaseGen for phase-decomposed benchmarks. It
// returns an error if the model has no phase specification.
func (m *Model) PhaseSampler(mach *machine.Machine, day int, seed uint64) (*PhaseGen, error) {
	if len(m.Phases) == 0 {
		return nil, fmt.Errorf("perfmodel: %s has no phase decomposition", m.Bench)
	}
	pg := &PhaseGen{}
	for i, ph := range m.Phases {
		sub := &Model{
			Bench: m.Bench + "/" + ph.Name,
			CUDA:  m.CUDA,
			Base:  m.Base * ph.Share,
			Modes: ph.Modes,
			// Tail behaviour and day effects are inherited from the parent.
			TailProb: m.TailProb, TailScale: m.TailScale,
			H100Speedup:   m.H100Speedup,
			DayMeanJitter: m.DayMeanJitter,
		}
		g, err := sub.Sampler(mach, day, seed+uint64(i)*1000003)
		if err != nil {
			return nil, err
		}
		pg.gens = append(pg.gens, g)
		pg.names = append(pg.names, ph.Name)
	}
	return pg, nil
}

// PhaseNames returns the phase metric names in order.
func (pg *PhaseGen) PhaseNames() []string { return pg.names }

// Next draws one run, returning the total execution time and the per-phase
// times (aligned with PhaseNames). The phase times are stored in buf when it
// has room (pass nil for a fresh slice), so a caller that discards or copies
// them can draw without allocating.
func (pg *PhaseGen) Next(buf []float64) (total float64, phases []float64) {
	phases = buf[:0]
	for _, g := range pg.gens {
		v := g.Next()
		phases = append(phases, v)
		total += v
	}
	return total, phases
}

// --- Concurrency model (sc, Table V) ---

// concurrencyTable holds the calibrated average execution time of the sc
// benchmark on Machine 3 per concurrency level (Table V).
var concurrencyTable = map[int]float64{
	1:  3.46,
	2:  4.80,
	4:  6.87,
	8:  11.90,
	16: 23.14,
}

// ConcurrencyMean returns the modeled mean execution time of sc at the
// given concurrency on mach. Levels between calibration points interpolate
// linearly in log2(concurrency); levels beyond 16 extrapolate the last
// slope. Machines other than Machine 3 scale by relative CPU speed.
func ConcurrencyMean(mach *machine.Machine, concurrency int) (float64, error) {
	if concurrency < 1 {
		return 0, fmt.Errorf("perfmodel: concurrency must be >= 1, got %d", concurrency)
	}
	t := interpConcurrency(float64(concurrency))
	// The table is calibrated on Machine 3 (CPUSpeed 1.15).
	const machine3Speed = 1.15
	return t * machine3Speed / mach.CPUSpeed, nil
}

func interpConcurrency(c float64) float64 {
	if c <= 1 {
		return concurrencyTable[1]
	}
	points := []int{1, 2, 4, 8, 16}
	for i := 0; i < len(points)-1; i++ {
		lo, hi := points[i], points[i+1]
		if c <= float64(hi) {
			frac := (math.Log2(c) - math.Log2(float64(lo))) / (math.Log2(float64(hi)) - math.Log2(float64(lo)))
			return concurrencyTable[lo] + frac*(concurrencyTable[hi]-concurrencyTable[lo])
		}
	}
	// Extrapolate beyond 16 with the 8->16 slope per doubling.
	slope := concurrencyTable[16] - concurrencyTable[8]
	doublings := math.Log2(c) - 4
	return concurrencyTable[16] + slope*doublings
}

// ConcurrencyGen samples per-run average execution times of sc at a fixed
// concurrency level, with multiplicative machine noise. It implements
// randx.Sampler.
type ConcurrencyGen struct {
	mean  float64
	noise float64
	conc  int
	rng   *randx.RNG
}

// ConcurrencySampler returns a sampler of sc run times at the given
// concurrency on mach.
func ConcurrencySampler(mach *machine.Machine, concurrency int, seed uint64) (*ConcurrencyGen, error) {
	mean, err := ConcurrencyMean(mach, concurrency)
	if err != nil {
		return nil, err
	}
	return &ConcurrencyGen{
		mean:  mean,
		noise: mach.NoiseCV * 3, // contention amplifies noise
		conc:  concurrency,
		rng:   randx.New(seedFor(seed, "sc-concurrency", mach.Name, concurrency)),
	}, nil
}

// Name implements randx.Sampler.
func (g *ConcurrencyGen) Name() string { return fmt.Sprintf("sc@c=%d", g.conc) }

// Next draws the next run's average execution time.
func (g *ConcurrencyGen) Next() float64 {
	v := g.mean * (1 + g.noise*g.rng.NormFloat64())
	if v < 1e-6 {
		v = 1e-6
	}
	return v
}

// PerInstanceTimes decomposes one run at the sampler's concurrency into
// per-instance execution times that average to the run value; SHARP logs
// each concurrent instance in its own row (§IV-d).
func (g *ConcurrencyGen) PerInstanceTimes(runValue float64) []float64 {
	out := make([]float64, g.conc)
	sum := 0.0
	for i := range out {
		out[i] = runValue * (1 + 0.02*g.rng.NormFloat64())
		sum += out[i]
	}
	// Re-center so the mean matches the run value exactly.
	adj := runValue * float64(g.conc) / sum
	for i := range out {
		out[i] *= adj
	}
	return out
}
