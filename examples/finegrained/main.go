// Fine-grained application analysis (paper §VI-A, Fig. 7): where do the
// modes in an application's execution time come from?
//
// The leukocyte tracking application reports per-phase metrics (detection,
// tracking) alongside total execution time. SHARP logs all of them per run;
// comparing the phase distributions localizes the bimodality to the
// tracking phase.
//
//	go run ./examples/finegrained
package main

import (
	"context"
	"fmt"
	"log"

	"sharp/internal/core"
	"sharp/internal/report"
	"sharp/internal/stats"
	"sharp/internal/stopping"
)

func main() {
	exp, err := core.Spec{
		Name:     "leukocyte-finegrained",
		Workload: "leukocyte",
		Backend:  core.BackendSpec{Kind: "sim", Machine: "machine1", Seed: 3},
		Rule:     stopping.Spec{Kind: "fixed", Threshold: 1000},
		Day:      1,
		Seed:     3,
	}.Experiment(nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.NewLauncher().Run(context.Background(), exp)
	if err != nil {
		log.Fatal(err)
	}

	total := res.Samples
	detection := res.MetricSamples("detection_time")
	tracking := res.MetricSamples("tracking_time")

	fmt.Println("# Leukocyte fine-grained analysis")
	fmt.Println()
	fmt.Printf("total:     %d mode(s)\n", stats.CountModes(total))
	fmt.Printf("detection: %d mode(s)\n", stats.CountModes(detection))
	fmt.Printf("tracking:  %d mode(s)\n", stats.CountModes(tracking))
	fmt.Println()
	fmt.Print(report.Distribution("exec_time (total)", total, report.Options{}))
	fmt.Print(report.Distribution("detection_time", detection, report.Options{}))
	fmt.Print(report.Distribution("tracking_time", tracking, report.Options{}))
	fmt.Println()
	fmt.Println("Insight: the dual modes of the total execution time are introduced")
	fmt.Println("by the tracking phase — optimization effort belongs there.")
}
