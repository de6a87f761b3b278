package perfmodel

import (
	"math"
	"testing"

	"sharp/internal/machine"
	"sharp/internal/randx"
	"sharp/internal/similarity"
	"sharp/internal/stats"
)

func m1() *machine.Machine { m, _ := machine.ByName("machine1"); return m }
func m2() *machine.Machine { m, _ := machine.ByName("machine2"); return m }
func m3() *machine.Machine { m, _ := machine.ByName("machine3"); return m }

// mustSampler is Model.Sampler for configurations known to be valid.
func mustSampler(m *Model, mach *machine.Machine, day int, seed uint64) *Gen {
	g, err := m.Sampler(mach, day, seed)
	if err != nil {
		panic(err)
	}
	return g
}

func TestSuiteComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("suite has %d benchmarks, want 20", len(all))
	}
	seen := map[string]bool{}
	cuda := 0
	for _, m := range all {
		if m.CUDA {
			cuda++
		}
		if seen[m.Bench] {
			t.Errorf("duplicate benchmark %s", m.Bench)
		}
		seen[m.Bench] = true
		if m.Base <= 0 || len(m.Modes) == 0 || m.Params == "" {
			t.Errorf("%s: incomplete model %+v", m.Bench, m)
		}
		if m.CUDA && m.H100Speedup < 1.2 {
			t.Errorf("%s: H100 speedup %v out of paper range", m.Bench, m.H100Speedup)
		}
	}
	if cuda != 9 {
		t.Fatalf("CUDA benchmarks = %d, want 9 (and 11 CPU)", cuda)
	}
}

func TestModalitySplitMatchesFig4(t *testing.T) {
	// Fig. 4 finding: 30% unimodal, 40% bimodal, 20% trimodal, 10% >3 modes.
	counts := map[int]int{}
	for _, m := range All() {
		n := len(m.Modes)
		if n > 3 {
			n = 4
		}
		counts[n]++
	}
	if counts[1] != 6 || counts[2] != 8 || counts[3] != 4 || counts[4] != 2 {
		t.Fatalf("modality split = %v, want 6/8/4/2", counts)
	}
}

func TestDetectedModesMatchDesign(t *testing.T) {
	// The KDE mode detector must recover the designed mode count from 5000
	// samples of the canonical (day-0) distribution on Machine 1.
	for _, m := range All() {
		mach := m1()
		g := mustSampler(m, mach, 0, 42)
		data := randx.SampleN(g, 5000)
		got := stats.CountModes(data)
		if got != len(m.Modes) {
			t.Errorf("%s: detected %d modes, designed %d", m.Bench, got, len(m.Modes))
		}
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := For("hotspot")
	a := randx.SampleN(mustSampler(m, m2(), 3, 7), 50)
	b := randx.SampleN(mustSampler(m, m2(), 3, 7), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampler is not deterministic")
		}
	}
	c := randx.SampleN(mustSampler(m, m2(), 4, 7), 50)
	if a[0] == c[0] {
		t.Fatal("different days produced identical streams")
	}
}

func TestCUDAOnGPUlessMachineFails(t *testing.T) {
	m, _ := For("bfs-CUDA")
	if _, err := m.Sampler(m2(), 1, 1); err == nil {
		t.Fatal("CUDA benchmark ran on machine2 (no GPU)")
	}
}

func TestH100SpeedupRange(t *testing.T) {
	// §VI-B: H100 consistently faster, speedups 1.2x..2x by benchmark.
	for _, m := range All() {
		if !m.CUDA {
			continue
		}
		a100 := stats.Mean(randx.SampleN(mustSampler(m, m1(), 0, 5), 2000))
		h100 := stats.Mean(randx.SampleN(mustSampler(m, m3(), 0, 5), 2000))
		speedup := a100 / h100
		if speedup < 1.1 || speedup > 2.2 {
			t.Errorf("%s: H100 speedup %.2f outside [1.1, 2.2]", m.Bench, speedup)
		}
	}
	// Fig. 8 / Fig. 9 anchors.
	bfs, _ := For("bfs-CUDA")
	srad, _ := For("srad-CUDA")
	bfsUp := stats.Mean(randx.SampleN(mustSampler(bfs, m1(), 0, 5), 2000)) /
		stats.Mean(randx.SampleN(mustSampler(bfs, m3(), 0, 5), 2000))
	sradUp := stats.Mean(randx.SampleN(mustSampler(srad, m1(), 0, 5), 2000)) /
		stats.Mean(randx.SampleN(mustSampler(srad, m3(), 0, 5), 2000))
	if math.Abs(bfsUp-2.0) > 0.25 {
		t.Errorf("bfs-CUDA speedup %.2f, want ~2.0", bfsUp)
	}
	if math.Abs(sradUp-1.2) > 0.15 {
		t.Errorf("srad-CUDA speedup %.2f, want ~1.2", sradUp)
	}
}

func TestH100HasMoreModes(t *testing.T) {
	// Fig. 8: the H100 exposes more performance states for bfs-CUDA.
	m, _ := For("bfs-CUDA")
	a100 := stats.CountModes(randx.SampleN(mustSampler(m, m1(), 0, 3), 4000))
	h100 := stats.CountModes(randx.SampleN(mustSampler(m, m3(), 0, 3), 4000))
	if h100 <= a100 {
		t.Errorf("modes: A100=%d H100=%d, want H100 > A100", a100, h100)
	}
}

func TestHotspotDayModeFlip(t *testing.T) {
	// Fig. 5c: on Machine 2, hotspot day 3 is trimodal, day 5 bimodal, with
	// nearly identical means (NAMD ~ 0) but a clear KS difference.
	m, _ := For("hotspot")
	day3 := randx.SampleN(mustSampler(m, m2(), 3, 42), 1000)
	day5 := randx.SampleN(mustSampler(m, m2(), 5, 42), 1000)
	if got := stats.CountModes(day3); got != 3 {
		t.Errorf("day 3 modes = %d, want 3", got)
	}
	if got := stats.CountModes(day5); got != 2 {
		t.Errorf("day 5 modes = %d, want 2", got)
	}
	namd, err := similarity.NAMDSorted(day3, day5)
	if err != nil {
		t.Fatal(err)
	}
	ks := similarity.KS(day3, day5)
	if namd > 0.02 {
		t.Errorf("NAMD = %.4f, want ~0 (means equal)", namd)
	}
	if ks < 0.08 {
		t.Errorf("KS = %.4f, want clearly nonzero", ks)
	}
	t.Logf("hotspot m2 day3 vs day5: NAMD=%.4f KS=%.4f (paper: 0.00 / 0.21)", namd, ks)
}

func TestMeanStableBenchmarksKeepMeanAcrossDays(t *testing.T) {
	for _, name := range []string{"hotspot", "bfs", "kmeans"} {
		m, _ := For(name)
		means := make([]float64, 5)
		for d := 1; d <= 5; d++ {
			means[d-1] = stats.Mean(randx.SampleN(mustSampler(m, m1(), d, 9), 2000))
		}
		lo, hi := stats.Min(means), stats.Max(means)
		if (hi-lo)/lo > 0.02 {
			t.Errorf("%s: day means drift %.3f%%, want < 2%%", name, 100*(hi-lo)/lo)
		}
	}
}

func TestLeukocytePhases(t *testing.T) {
	m, _ := For("leukocyte")
	pg, err := m.PhaseSampler(m1(), 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	totals := make([]float64, n)
	det := make([]float64, n)
	track := make([]float64, n)
	for i := 0; i < n; i++ {
		tot, phases := pg.Next(nil)
		totals[i] = tot
		det[i] = phases[0]
		track[i] = phases[1]
		if math.Abs(tot-(phases[0]+phases[1])) > 1e-9 {
			t.Fatal("total != sum of phases")
		}
	}
	if got := stats.CountModes(det); got != 1 {
		t.Errorf("detection modes = %d, want 1", got)
	}
	if got := stats.CountModes(track); got != 2 {
		t.Errorf("tracking modes = %d, want 2 (Fig. 7)", got)
	}
	if got := stats.CountModes(totals); got != 2 {
		t.Errorf("total modes = %d, want 2", got)
	}
	names := pg.PhaseNames()
	if len(names) != 2 || names[0] != "detection_time" || names[1] != "tracking_time" {
		t.Errorf("phase names = %v", names)
	}
	if _, err := (&Model{Bench: "x"}).PhaseSampler(m1(), 0, 1); err == nil {
		t.Error("phase sampler on non-phased model must error")
	}
}

func TestConcurrencyTableV(t *testing.T) {
	// Table V on Machine 3: averages and per-unit times.
	want := map[int]float64{1: 3.46, 2: 4.80, 4: 6.87, 8: 11.90, 16: 23.14}
	for c, w := range want {
		got, err := ConcurrencyMean(m3(), c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("c=%d: mean %.3f, want %.3f", c, got, w)
		}
	}
	// Monotonicity of the two Table V columns.
	prevT, prevPU := 0.0, math.Inf(1)
	for _, c := range []int{1, 2, 4, 8, 16} {
		tm, _ := ConcurrencyMean(m3(), c)
		pu := tm / float64(c)
		if tm <= prevT {
			t.Errorf("total time not increasing at c=%d", c)
		}
		if pu >= prevPU {
			t.Errorf("per-unit time not decreasing at c=%d", c)
		}
		prevT, prevPU = tm, pu
	}
	// Interpolation and extrapolation stay monotone.
	t3, _ := ConcurrencyMean(m3(), 3)
	if t3 <= 4.80 || t3 >= 6.87 {
		t.Errorf("interpolated c=3 = %.3f out of (4.80, 6.87)", t3)
	}
	t32, _ := ConcurrencyMean(m3(), 32)
	if t32 <= 23.14 {
		t.Errorf("extrapolated c=32 = %.3f", t32)
	}
	if _, err := ConcurrencyMean(m3(), 0); err == nil {
		t.Error("c=0 must error")
	}
}

func TestConcurrencyPerInstance(t *testing.T) {
	g, err := ConcurrencySampler(m3(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := g.Next()
	inst := g.PerInstanceTimes(run)
	if len(inst) != 4 {
		t.Fatalf("instances = %d", len(inst))
	}
	if math.Abs(stats.Mean(inst)-run) > 1e-9 {
		t.Fatalf("instance mean %.6f != run %.6f", stats.Mean(inst), run)
	}
}

func TestBaseTimesPlausible(t *testing.T) {
	// Mean of sampled times tracks Base * machine factor within tail slack.
	for _, m := range All() {
		g := mustSampler(m, m1(), 0, 2)
		got := stats.Median(randx.SampleN(g, 3000))
		if math.Abs(got-m.Base)/m.Base > 0.08 {
			t.Errorf("%s: median %.3f vs base %.3f", m.Bench, got, m.Base)
		}
	}
}

func TestAllBenchmarkMachineDayCombinationsProperty(t *testing.T) {
	// Property over the full grid: every valid (benchmark, machine, day)
	// yields positive, finite execution times whose median stays within a
	// factor of the base time, and identical coordinates yield identical
	// streams.
	machines := machine.Testbed()
	for _, m := range All() {
		for _, mach := range machines {
			if m.CUDA && !mach.HasGPU() {
				continue
			}
			for day := 0; day <= 5; day++ {
				g, err := m.Sampler(mach, day, 77)
				if err != nil {
					t.Fatalf("%s@%s day %d: %v", m.Bench, mach.Name, day, err)
				}
				data := randx.SampleN(g, 200)
				for _, v := range data {
					if !(v > 0) || math.IsInf(v, 0) {
						t.Fatalf("%s@%s day %d: bad sample %v", m.Bench, mach.Name, day, v)
					}
				}
				med := stats.Median(data)
				if med < m.Base/4 || med > m.Base*4 {
					t.Errorf("%s@%s day %d: median %.3f far from base %.3f",
						m.Bench, mach.Name, day, med, m.Base)
				}
				again := randx.SampleN(mustSampler(m, mach, day, 77), 200)
				for i := range data {
					if data[i] != again[i] {
						t.Fatalf("%s@%s day %d: nondeterministic", m.Bench, mach.Name, day)
					}
				}
			}
		}
	}
}
