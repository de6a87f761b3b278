// Duet benchmarking (related work §VII, Bulej et al.): compare two
// workloads by running them in interleaved pairs so platform interference
// affects both sides of each pair equally, then analyze the paired ratios
// with the Wilcoxon signed-rank test.
//
// The demo compares needle vs backprop twice: once as a plain unpaired
// comparison and once as a duet, showing the duet's tighter ratio interval.
//
//	go run ./examples/duet
package main

import (
	"context"
	"fmt"
	"log"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/duet"
	"sharp/internal/machine"
	"sharp/internal/stopping"
)

func main() {
	m1, err := machine.ByName("machine1")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Unpaired: two independent campaigns, compared after the fact.
	launcher := core.NewLauncher()
	measure := func(workload string) *core.Result {
		exp, err := core.Spec{
			Name:     workload,
			Workload: workload,
			Backend:  core.BackendSpec{Kind: "sim", Machine: m1.Name, Seed: 7},
			Rule:     stopping.Spec{Kind: "fixed", Threshold: 100},
			Day:      1,
			Seed:     7,
		}.Experiment(nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := launcher.Run(ctx, exp)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	ra := measure("needle")
	rb := measure("backprop")
	cmp, err := core.CompareResults(ra, rb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Unpaired comparison (two independent 100-run campaigns)")
	fmt.Printf("mean ratio needle/backprop: %.4f (Mann-Whitney p=%.3g)\n\n",
		cmp.MeanA/cmp.MeanB, cmp.MannWhitney.PValue)

	// Duet: interleaved pairs with a dynamic CI stopping rule on the ratio.
	res, err := duet.Run(ctx, backend.NewSim(m1, 7), duet.Config{
		WorkloadA:      "needle",
		WorkloadB:      "backprop",
		Seed:           7,
		Day:            1,
		MaxPairs:       200,
		AlternateOrder: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Duet comparison (interleaved pairs, paired analysis)")
	fmt.Print(res.Render())
	fmt.Printf("\nThe duet needed only %d pairs because the paired design cancels\n", res.Pairs)
	fmt.Println("shared interference; the ratio CI quantifies the speedup directly.")
}
