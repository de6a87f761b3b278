package experiments

import (
	"fmt"
	"strings"

	"sharp/internal/core"
	"sharp/internal/perfmodel"
	"sharp/internal/randx"
	"sharp/internal/stats"
	"sharp/internal/textplot"
)

// Fig7Result holds the leukocyte fine-grained breakdown (use case 1).
type Fig7Result struct {
	Total, Detection, Tracking                []float64
	ModesTotal, ModesDetection, ModesTracking int
}

// Fig7 regenerates Fig. 7: per-phase execution-time distributions of the
// leukocyte application; the tracking phase introduces the total's two
// modes.
func Fig7(seed uint64) (*Fig7Result, error) {
	model, _ := perfmodel.For("leukocyte")
	pg, err := model.PhaseSampler(mustMachine("machine1"), 0, seed)
	if err != nil {
		return nil, err
	}
	const n = 3000
	r := &Fig7Result{}
	for i := 0; i < n; i++ {
		tot, phases := pg.Next(nil)
		r.Total = append(r.Total, tot)
		r.Detection = append(r.Detection, phases[0])
		r.Tracking = append(r.Tracking, phases[1])
	}
	r.ModesTotal = stats.CountModes(r.Total)
	r.ModesDetection = stats.CountModes(r.Detection)
	r.ModesTracking = stats.CountModes(r.Tracking)
	return r, nil
}

// Render implements Report.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("# Fig. 7: leukocyte fine-grained phase analysis\n\n")
	fmt.Fprintf(&b, "- total execution time: %d modes\n", r.ModesTotal)
	fmt.Fprintf(&b, "- detection phase:      %d mode(s)\n", r.ModesDetection)
	fmt.Fprintf(&b, "- tracking phase:       %d modes\n\n", r.ModesTracking)
	b.WriteString("The dual modes of the total originate in the tracking phase —\n")
	b.WriteString("users should focus optimization there (paper's insight).\n\n")
	fmt.Fprintf(&b, "Execution time:\n\n```\n%s```\n\n", textplot.HistogramData(r.Total, 44))
	fmt.Fprintf(&b, "Detection time:\n\n```\n%s```\n\n", textplot.HistogramData(r.Detection, 44))
	fmt.Fprintf(&b, "Tracking time:\n\n```\n%s```\n", textplot.HistogramData(r.Tracking, 44))
	return b.String()
}

// GPUCompareResult is an A100-vs-H100 benchmark comparison (Figs. 8 and 9).
type GPUCompareResult struct {
	Benchmark  string
	A100, H100 []float64
	Comparison core.Comparison
	PaperNote  string
}

// gpuCompare measures a CUDA benchmark on Machines 1 (A100) and 3 (H100).
func gpuCompare(bench string, seed uint64, note string) (*GPUCompareResult, error) {
	a100, err := sampleBench(bench, mustMachine("machine1"), 1, 2000, seed)
	if err != nil {
		return nil, err
	}
	h100, err := sampleBench(bench, mustMachine("machine3"), 1, 2000, seed)
	if err != nil {
		return nil, err
	}
	cmp, err := core.Compare(bench+"@A100", a100, bench+"@H100", h100)
	if err != nil {
		return nil, err
	}
	return &GPUCompareResult{
		Benchmark: bench, A100: a100, H100: h100,
		Comparison: cmp, PaperNote: note,
	}, nil
}

// Fig8 regenerates the bfs A100-vs-H100 comparison (~2x speedup, more
// modes on the H100).
func Fig8(seed uint64) (*GPUCompareResult, error) {
	return gpuCompare("bfs-CUDA", seed, "paper: ~2x speedup, H100 shows more modes")
}

// Fig9 regenerates the srad A100-vs-H100 comparison (~1.2x speedup).
func Fig9(seed uint64) (*GPUCompareResult, error) {
	return gpuCompare("srad-CUDA", seed, "paper: ~1.2x speedup")
}

// Render implements Report.
func (r *GPUCompareResult) Render() string {
	var b strings.Builder
	fig := "Fig. 8"
	if r.Benchmark == "srad-CUDA" {
		fig = "Fig. 9"
	}
	fmt.Fprintf(&b, "# %s: %s performance, A100 vs H100\n\n", fig, r.Benchmark)
	fmt.Fprintf(&b, "Speedup (mean A100 / mean H100): %.2fx — %s.\n", r.Comparison.Speedup, r.PaperNote)
	fmt.Fprintf(&b, "Modes: A100 %d, H100 %d. KS distance %.3f.\n\n",
		r.Comparison.ModesA, r.Comparison.ModesB, r.Comparison.KS)
	fmt.Fprintf(&b, "A100 (Machine 1):\n\n```\n%s```\n\n", textplot.HistogramData(r.A100, 44))
	fmt.Fprintf(&b, "H100 (Machine 3):\n\n```\n%s```\n", textplot.HistogramData(r.H100, 44))
	return b.String()
}

// Table5Row is one concurrency level of the sc study (use case 3).
type Table5Row struct {
	Concurrency int
	AvgTime     float64
	PerUnit     float64
}

// Table5Result holds the concurrency sweep of Table V.
type Table5Result struct {
	Rows []Table5Row
	// RuntimeIncreasePct is the total-runtime growth from concurrency 2 to
	// 16 relative to 1 (the paper reports +39% to +570%).
	RuntimeIncreasePct [2]float64
	// PerUnitDecreasePct is the per-unit improvement range (30-57% in the
	// paper).
	PerUnitDecreasePct [2]float64
}

// Table5 regenerates Table V: the sc benchmark on Machine 3 at concurrency
// 1, 2, 4, 8, 16 — average execution time and execution time per
// concurrency unit.
func Table5(seed uint64) (*Table5Result, error) {
	m3 := mustMachine("machine3")
	res := &Table5Result{}
	const runs = 200
	var t1 float64
	for _, c := range []int{1, 2, 4, 8, 16} {
		g, err := perfmodel.ConcurrencySampler(m3, c, seed)
		if err != nil {
			return nil, err
		}
		avg := stats.Mean(randx.SampleN(g, runs))
		res.Rows = append(res.Rows, Table5Row{
			Concurrency: c,
			AvgTime:     avg,
			PerUnit:     avg / float64(c),
		})
		if c == 1 {
			t1 = avg
		}
	}
	first := res.Rows[1] // c=2
	last := res.Rows[len(res.Rows)-1]
	res.RuntimeIncreasePct = [2]float64{
		100 * (first.AvgTime - t1) / t1,
		100 * (last.AvgTime - t1) / t1,
	}
	res.PerUnitDecreasePct = [2]float64{
		100 * (t1 - first.PerUnit) / t1,
		100 * (t1 - last.PerUnit) / t1,
	}
	return res, nil
}

// Render implements Report.
func (r *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("# Table V: effect of concurrency on application sc (Machine 3)\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Concurrency),
			fmt.Sprintf("%.2f", row.AvgTime),
			fmt.Sprintf("%.2f", row.PerUnit),
		})
	}
	b.WriteString(textplot.Table(
		[]string{"Concurrency", "Avg. execution time (s)", "Time per concurrency unit (s)"}, rows))
	fmt.Fprintf(&b, "\nRuntime grows %.0f%%-%.0f%% (paper: 39%%-570%%); per-unit time falls %.0f%%-%.0f%% (paper: 30%%-57%%).\n",
		r.RuntimeIncreasePct[0], r.RuntimeIncreasePct[1],
		r.PerUnitDecreasePct[0], r.PerUnitDecreasePct[1])
	return b.String()
}
