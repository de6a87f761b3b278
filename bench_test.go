package sharp_test

// Benchmark harness: one testing.B target per paper table and figure (see
// DESIGN.md's per-experiment index), plus ablation benches for the design
// choices the framework makes. Each benchmark regenerates its experiment
// end-to-end and reports the headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the paper's result series and
// their costs in one run.

import (
	"context"
	"fmt"
	"testing"

	"sharp/internal/backend"
	"sharp/internal/classify"
	"sharp/internal/core"
	"sharp/internal/experiments"
	"sharp/internal/machine"
	"sharp/internal/randx"
	"sharp/internal/similarity"
	"sharp/internal/stats"
	"sharp/internal/stats/stream"
	"sharp/internal/stopping"
	"sharp/internal/sweep"
)

const benchSeed = 2024

// BenchmarkFig1bAutoStopping regenerates Fig. 1b: computation saved by
// KS-rule auto-stopping vs a fixed 1000-run budget (paper: 89.8%).
func BenchmarkFig1bAutoStopping(b *testing.B) {
	var savings, divergence float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1b(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		savings = r.SavingsKS
		divergence = r.KSDivergence
	}
	b.ReportMetric(savings*100, "savings_%")
	b.ReportMetric(divergence, "KS_to_truth")
}

// BenchmarkTable2Suite regenerates Table II from the live suite definition.
func BenchmarkTable2Suite(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run("table2", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		n = len(rep.Render())
	}
	b.ReportMetric(float64(n), "render_bytes")
}

// BenchmarkFig4Distributions regenerates Fig. 4: 5000-run distributions of
// all 20 benchmarks on Machine 1 and the modality census (paper: 70%
// multimodal — 40/20/10% with 2/3/>3 modes).
func BenchmarkFig4Distributions(b *testing.B) {
	var multimodalPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		total := len(r.Benchmarks)
		multimodalPct = 100 * float64(total-r.Split[1]) / float64(total)
	}
	b.ReportMetric(multimodalPct, "multimodal_%")
}

// BenchmarkFig5aScatter regenerates Fig. 5a: 330 NAMD-vs-KS day-pair
// comparisons across 11 CPU benchmarks and 3 machines.
func BenchmarkFig5aScatter(b *testing.B) {
	var dissimilar, divergent float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5a(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		dissimilar = 100 * float64(r.DissimilarKS) / float64(len(r.Pairs))
		divergent = float64(r.Divergent)
	}
	b.ReportMetric(dissimilar, "KS_dissimilar_%")
	b.ReportMetric(divergent, "NAMD_blind_pairs")
}

// BenchmarkFig5bHeatmap regenerates Fig. 5b: the hotspot/Machine 2
// day-similarity heatmaps (paper's day3-day5 cell: NAMD 0.00, KS 0.21).
func BenchmarkFig5bHeatmap(b *testing.B) {
	var namd35, ks35 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5b(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		namd35, ks35 = r.NAMD[2][4], r.KS[2][4]
	}
	b.ReportMetric(namd35, "NAMD_d3d5")
	b.ReportMetric(ks35, "KS_d3d5")
}

// BenchmarkFig5cModeFlip regenerates Fig. 5c: day-3 trimodal vs day-5
// bimodal hotspot distributions with equal means.
func BenchmarkFig5cModeFlip(b *testing.B) {
	var m3, m5 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5c(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		m3, m5 = float64(r.ModesDay3), float64(r.ModesDay5)
	}
	b.ReportMetric(m3, "modes_day3")
	b.ReportMetric(m5, "modes_day5")
}

// BenchmarkFig6StoppingRules regenerates Fig. 6: the four Table IV stopping
// rules on the GPU suite over the simulated FaaS platform.
func BenchmarkFig6StoppingRules(b *testing.B) {
	var ksSave, ciT1Save, ciT2Save float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		ksSave = 100 * r.Savings["ks-0.1"]
		ciT1Save = 100 * r.Savings["ci-0.05"]
		ciT2Save = 100 * r.Savings["ci-0.01"]
	}
	b.ReportMetric(ksSave, "ks_savings_%")
	b.ReportMetric(ciT1Save, "ciT1_savings_%")
	b.ReportMetric(ciT2Save, "ciT2_savings_%")
}

// BenchmarkFig7FineGrained regenerates Fig. 7: leukocyte phase breakdown
// (tracking introduces the two modes).
func BenchmarkFig7FineGrained(b *testing.B) {
	var trackingModes float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		trackingModes = float64(r.ModesTracking)
	}
	b.ReportMetric(trackingModes, "tracking_modes")
}

// BenchmarkFig8BFS regenerates Fig. 8: bfs-CUDA on A100 vs H100 (paper:
// ~2x speedup, more modes on the H100).
func BenchmarkFig8BFS(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Comparison.Speedup
	}
	b.ReportMetric(speedup, "H100_speedup_x")
}

// BenchmarkFig9SRAD regenerates Fig. 9: srad-CUDA on A100 vs H100 (paper:
// ~1.2x speedup).
func BenchmarkFig9SRAD(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Comparison.Speedup
	}
	b.ReportMetric(speedup, "H100_speedup_x")
}

// BenchmarkTable5Concurrency regenerates Table V: sc under concurrency
// 1..16 on Machine 3 (paper: 3.46 s -> 23.14 s total, 3.46 -> 1.45 s
// per unit).
func BenchmarkTable5Concurrency(b *testing.B) {
	var c16, perUnit16 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		c16, perUnit16 = last.AvgTime, last.PerUnit
	}
	b.ReportMetric(c16, "c16_avg_s")
	b.ReportMetric(perUnit16, "c16_perunit_s")
}

// BenchmarkTuningSynthetic regenerates the §IV-c tuning pass: detection and
// stopping on the ten synthetic distributions.
func BenchmarkTuningSynthetic(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tuning(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		correct = float64(r.CorrectDetections)
	}
	b.ReportMetric(correct, "correct_of_10")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationBandwidth compares KDE bandwidth policies (Silverman vs
// fixed fractions of it) by mode-count accuracy over the Rodinia suite's
// canonical distributions.
func BenchmarkAblationBandwidth(b *testing.B) {
	type policy struct {
		name  string
		scale float64 // multiple of Silverman
	}
	for _, p := range []policy{{"silverman", 1.0}, {"half", 0.5}, {"double", 2.0}} {
		b.Run(p.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				correct, total := modeAccuracy(p.scale)
				acc = 100 * float64(correct) / float64(total)
			}
			b.ReportMetric(acc, "mode_acc_%")
		})
	}
}

// modeAccuracy counts suite benchmarks whose designed mode count is
// recovered under a scaled-Silverman KDE bandwidth.
func modeAccuracy(scale float64) (correct, total int) {
	rng := randx.New(benchSeed)
	for _, tc := range []struct {
		modes int
		mus   []float64
	}{
		{1, []float64{10}},
		{2, []float64{10, 10.6}},
		{3, []float64{10, 10.55, 11.1}},
		{4, []float64{10, 10.5, 11, 11.5}},
	} {
		for trial := 0; trial < 5; trial++ {
			s := randx.NewMultimodalNormal(rng.Fork(), 0.06, tc.mus...)
			data := randx.SampleN(s, 2000)
			bw := stats.SilvermanBandwidth(data) * scale
			got := len(stats.NewKDEBandwidth(data, bw).Modes(256, 0.15, 0.25))
			if got == tc.modes {
				correct++
			}
			total++
		}
	}
	return correct, total
}

// BenchmarkAblationSplit compares the deterministic half-vs-half KS rule
// against the bootstrap random-split self-similarity rule: runs used and
// divergence to truth over the suite-like bimodal workloads.
func BenchmarkAblationSplit(b *testing.B) {
	mk := map[string]func() stopping.Rule{
		"half-split": func() stopping.Rule {
			return stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 2000})
		},
		"random-split": func() stopping.Rule {
			return stopping.NewSelfSimilarity(0.1, 5, benchSeed, stopping.Bounds{MaxSamples: 2000})
		},
	}
	for name, makeRule := range mk {
		b.Run(name, func(b *testing.B) {
			var meanRuns, meanDiv float64
			for i := 0; i < b.N; i++ {
				meanRuns, meanDiv = 0, 0
				const workloads = 8
				for w := uint64(0); w < workloads; w++ {
					sampler := func() randx.Sampler {
						return randx.NewBimodalNormal(randx.New(w+1), 1.0, 0.008, 1.06, 0.008, 0.55)
					}
					got := stopping.Drive(sampler().Next, makeRule())
					truth := randx.SampleN(sampler(), 2000)
					meanRuns += float64(len(got)) / workloads
					meanDiv += similarity.KS(got, truth) / workloads
				}
			}
			b.ReportMetric(meanRuns, "mean_runs")
			b.ReportMetric(meanDiv, "mean_KS_to_truth")
		})
	}
}

// BenchmarkAblationMeta compares the meta-heuristic against an always-KS
// policy on the full synthetic tuning set: total runs spent.
func BenchmarkAblationMeta(b *testing.B) {
	mk := map[string]func() stopping.Rule{
		"meta": func() stopping.Rule {
			return stopping.NewMeta(stopping.MetaConfig{}, stopping.Bounds{MaxSamples: 5000})
		},
		"always-ks": func() stopping.Rule {
			return stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 5000})
		},
	}
	for name, makeRule := range mk {
		b.Run(name, func(b *testing.B) {
			var totalRuns float64
			for i := 0; i < b.N; i++ {
				totalRuns = 0
				for j := range randx.TuningSet(randx.New(benchSeed)) {
					s := randx.TuningSet(randx.New(benchSeed))[j]
					totalRuns += float64(len(stopping.Drive(s.Next, makeRule())))
				}
			}
			b.ReportMetric(totalRuns, "total_runs")
		})
	}
}

// BenchmarkAblationBinning compares histogram binning rules by how close
// the histogram peak count is to the designed mode count on bimodal data.
func BenchmarkAblationBinning(b *testing.B) {
	for _, rule := range []stats.BinRule{stats.BinSturges, stats.BinFreedmanDiaconis, stats.BinMinWidth, stats.BinScott} {
		b.Run(rule.String(), func(b *testing.B) {
			var hits float64
			for i := 0; i < b.N; i++ {
				hits = 0
				for trial := uint64(0); trial < 10; trial++ {
					s := randx.NewBimodalNormal(randx.New(trial+7), 10, 0.08, 10.6, 0.08, 0.55)
					h := stats.NewHistogram(randx.SampleN(s, 3000), rule)
					if h.Peaks(0.2) == 2 {
						hits++
					}
				}
			}
			b.ReportMetric(10*hits, "peak_acc_%")
		})
	}
}

// BenchmarkAblationClassifierSampleSize measures classifier accuracy on the
// synthetic tuning families as a function of sample size: how early can the
// meta-heuristic trust its family decision?
func BenchmarkAblationClassifierSampleSize(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				correct, total := 0, 0
				for trial := 0; trial < 10; trial++ {
					trialSeed := uint64(benchSeed + trial*7919)
					for idx, s := range randx.TuningSet(randx.New(trialSeed)) {
						name := s.Name()
						data := randx.SampleN(randx.TuningSet(randx.New(trialSeed))[idx], n)
						got := classify.Classify(data).Class
						if classAcceptable(name, got) {
							correct++
						}
						total++
					}
				}
				acc = 100 * float64(correct) / float64(total)
			}
			b.ReportMetric(acc, "accuracy_%")
		})
	}
}

// classAcceptable mirrors the tuning experiment's accepted labels.
func classAcceptable(family string, got classify.Class) bool {
	accept := map[string][]classify.Class{
		"normal":     {classify.Normal},
		"lognormal":  {classify.LogNormal},
		"uniform":    {classify.Uniform},
		"loguniform": {classify.LogUniform},
		"logistic":   {classify.Logistic, classify.Normal},
		"bimodal":    {classify.Multimodal},
		"multimodal": {classify.Multimodal},
		"sinusoidal": {classify.Autocorrelated},
		"cauchy":     {classify.HeavyTailed},
		"constant":   {classify.Constant},
	}
	for _, ok := range accept[family] {
		if got == ok {
			return true
		}
	}
	return false
}

// BenchmarkLauncherOverhead measures the launcher's per-run orchestration
// cost over the (instant) simulated backend: bookkeeping, logging rows, and
// stopping-rule checks — the non-intrusiveness claim of §III-B in numbers.
func BenchmarkLauncherOverhead(b *testing.B) {
	m, err := machine.ByName("machine1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.NewLauncher().Run(context.Background(), core.Experiment{
			Workload: "bfs",
			Backend:  backend.NewSim(m, uint64(i)),
			Rule:     stopping.NewFixed(1000),
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != 1000 {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(1000, "runs/op")
}

// BenchmarkStoppingCheckIncrementalVsRecompute compares the two ways of
// evaluating the KS half-vs-half convergence check (the complexity table in
// DESIGN.md):
//
//   - check-*: one check at n=1000 in isolation. The incremental rule keeps
//     block summaries of both prefix halves, so a check folds O(n/48) of
//     them; the pre-rewrite recompute policy re-sorts both halves first,
//     O(n log n) with two fresh copies. The incremental variant's first
//     check builds the blocks from the 1000 queued samples, so at
//     -benchtime 1x it times that build, not the fold.
//   - campaign-*: a full 1000-sample campaign with an unreachable threshold,
//     paying for all 100 checks at growing n (amortizing the incremental
//     path's settling of 10 new samples per check against the repeated
//     re-sorts).
func BenchmarkStoppingCheckIncrementalVsRecompute(b *testing.B) {
	const n = 1000
	data := randx.SampleN(randx.NewBimodalNormal(randx.New(benchSeed), 1.0, 0.01, 1.06, 0.01, 0.55), n)
	bounds := stopping.Bounds{MaxSamples: n}

	b.Run("check-incremental", func(b *testing.B) {
		var halves stream.Halves
		for _, x := range data {
			halves.Add(x)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var ks float64
		for i := 0; i < b.N; i++ {
			ks = halves.KS()
		}
		b.ReportMetric(ks, "KS")
	})

	b.Run("check-recompute", func(b *testing.B) {
		first, second := stats.SplitHalves(data)
		b.ReportAllocs()
		b.ResetTimer()
		var ks float64
		for i := 0; i < b.N; i++ {
			ks = stats.KSStatistic(first, second)
		}
		b.ReportMetric(ks, "KS")
	})

	b.Run("campaign-incremental", func(b *testing.B) {
		b.ReportAllocs()
		var checks int
		for i := 0; i < b.N; i++ {
			rule := stopping.NewKS(1e-9, bounds)
			checks = 0
			for _, x := range data {
				rule.Add(x)
				if rule.N() >= 10 && rule.N()%10 == 0 {
					checks++
				}
			}
			if !rule.Done() {
				b.Fatal("rule did not reach the sample cap")
			}
		}
		b.ReportMetric(float64(checks), "checks/op")
	})

	b.Run("campaign-recompute", func(b *testing.B) {
		b.ReportAllocs()
		var checks int
		for i := 0; i < b.N; i++ {
			samples := make([]float64, 0, n)
			checks = 0
			done := false
			for _, x := range data {
				if done {
					break
				}
				samples = append(samples, x)
				if len(samples) < 10 || len(samples)%10 != 0 {
					continue
				}
				checks++
				first, second := stats.SplitHalves(samples)
				if stats.KSStatistic(first, second) < 1e-9 {
					done = true
				}
			}
			if done {
				b.Fatal("recompute variant stopped early")
			}
		}
		b.ReportMetric(float64(checks), "checks/op")
	})
}

// benchFig4Parallel regenerates Fig. 4 with the experiments worker pool
// capped at the given width; on multi-core hosts the per-benchmark fan-out
// (sampling 5 machine-days plus the KDE mode census) scales near-linearly
// while the rendered report stays byte-identical.
func benchFig4Parallel(b *testing.B, workers int) {
	prev := experiments.SetParallelism(workers)
	defer experiments.SetParallelism(prev)
	var multimodalPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		total := len(r.Benchmarks)
		multimodalPct = 100 * float64(total-r.Split[1]) / float64(total)
	}
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(multimodalPct, "multimodal_%")
}

func BenchmarkFig4Parallel1(b *testing.B) { benchFig4Parallel(b, 1) }
func BenchmarkFig4Parallel4(b *testing.B) { benchFig4Parallel(b, 4) }
func BenchmarkFig4Parallel8(b *testing.B) { benchFig4Parallel(b, 8) }

// BenchmarkBudgetedSweep regenerates the adaptive-budget acceptance result:
// an 8-cell factorial sweep under a tight CI rule and a fixed run budget of
// 320, executed once with UCB allocation and once with uniform round-robin.
// alloc_runs is the deterministic total the scheduler spends (exact-gated:
// same seed + budget must yield the same ledger forever) and ci_gain_x is
// the round-robin mean CI width over the UCB one — the adaptive policy's
// advantage, gated as a floor at 1.0 (UCB must never be worse than uniform).
func BenchmarkBudgetedSweep(b *testing.B) {
	base := sweep.Design{
		Name:      "bench-budget",
		Workloads: []string{"bfs", "srad"},
		Machines:  []string{"machine1", "machine3"},
		Days:      []int{1, 2},
		RuleName:  "ci",
		Threshold: 0.002, // tight: no cell converges inside the budget
		MaxRuns:   1000,
		Seed:      5,
		Budget:    320,
	}
	var spent int
	var gain float64
	for i := 0; i < b.N; i++ {
		run := func(policy string) *sweep.Outcome {
			d := base
			d.BudgetPolicy = policy
			out, err := sweep.Run(context.Background(), d)
			if err != nil {
				b.Fatal(err)
			}
			return out
		}
		ucb := run("ucb")
		rr := run("rr")
		spent = ucb.Budget.Spent + rr.Budget.Spent
		gain = rr.MeanCIWidth(0.95) / ucb.MeanCIWidth(0.95)
	}
	b.ReportMetric(float64(spent), "alloc_runs")
	b.ReportMetric(gain, "ci_gain_x")
}
