// GPU comparison (paper §VI-B, Figs. 8-9): which accelerator — A100 or
// H100 — is better for a given application, and by how much?
//
// SHARP's answer is a distribution comparison, not a single speedup number:
// means, KS distance, modality, and overlap, for every CUDA benchmark in
// the Rodinia suite.
//
//	go run ./examples/gpu-compare
package main

import (
	"context"
	"fmt"
	"log"

	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/report"
	"sharp/internal/rodinia"
	"sharp/internal/stopping"
	"sharp/internal/textplot"
)

func main() {
	a100, err := machine.ByName("machine1") // Nvidia A100X 80GB
	if err != nil {
		log.Fatal(err)
	}
	h100, err := machine.ByName("machine3") // Nvidia H100 80GB
	if err != nil {
		log.Fatal(err)
	}
	launcher := core.NewLauncher()
	measure := func(bench string, m *machine.Machine) *core.Result {
		exp, err := core.Spec{
			Name:     bench + "@" + m.GPU.Model,
			Workload: bench,
			Backend:  core.BackendSpec{Kind: "sim", Machine: m.Name, Seed: 7},
			Rule:     stopping.Spec{Kind: "ks", Threshold: 0.1, Bounds: stopping.Bounds{MaxSamples: 1000}},
			Day:      1,
			Seed:     7,
		}.Experiment(nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := launcher.Run(context.Background(), exp)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	var rows [][]string
	for _, bench := range rodinia.CUDA() {
		ra := measure(bench.Name, a100)
		rh := measure(bench.Name, h100)
		cmp, err := core.CompareResults(ra, rh)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			bench.Name,
			fmt.Sprintf("%.3fs", cmp.MeanA),
			fmt.Sprintf("%.3fs", cmp.MeanB),
			fmt.Sprintf("%.2fx", cmp.Speedup),
			fmt.Sprintf("%d / %d", cmp.ModesA, cmp.ModesB),
			fmt.Sprintf("%d / %d", ra.Runs, rh.Runs),
		})
		// Print the detailed distribution comparison for the two benchmarks
		// the paper highlights.
		if bench.Name == "bfs-CUDA" || bench.Name == "srad-CUDA" {
			fmt.Print(report.Comparison(cmp, ra.Samples, rh.Samples, report.Options{}))
			fmt.Println()
		}
	}
	fmt.Println("# H100 vs A100 across the CUDA suite")
	fmt.Println()
	fmt.Print(textplot.Table(
		[]string{"benchmark", "A100 mean", "H100 mean", "speedup", "modes A/H", "runs A/H"}, rows))
	fmt.Println("\nThe H100 is consistently faster, but the speedup is application-")
	fmt.Println("specific (1.2x to 2x) — the basis for cost-aware hardware selection.")
}
