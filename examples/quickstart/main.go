// Quickstart: measure one benchmark with SHARP's auto-stopping and print a
// full distribution report.
//
// This is the minimal SHARP loop: pick a workload and a backend, let the
// meta-heuristic stopping rule decide how many repetitions are enough, and
// get a distribution — not a point summary — plus a reproducible record.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sharp/internal/core"
	"sharp/internal/report"
)

func main() {
	// 1. Describe the campaign: a workload from the Rodinia suite on a
	// simulated machine. The spec is what the metadata records, so the
	// experiment it builds can be recreated from its own record.
	exp, err := core.Spec{
		Name:     "quickstart-hotspot",
		Workload: "hotspot",
		Backend:  core.BackendSpec{Kind: "sim", Machine: "machine1", Seed: 42},
		// Rule: zero -> the meta-heuristic classifies the distribution
		// online and applies the most appropriate stopping criterion.
		Day:  1,
		Seed: 42,
	}.Experiment(nil)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run. The launcher repeats the workload until the stopping rule is
	// satisfied, logging every instance of every run.
	res, err := core.NewLauncher().Run(context.Background(), exp)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report the distribution.
	fmt.Print(report.Result(res, report.Options{}))

	// 4. Record everything: tidy CSV + metadata that can recreate this very
	// experiment ('sharp recreate quickstart-meta.md').
	dir := os.TempDir()
	csvPath := filepath.Join(dir, "quickstart-log.csv")
	metaPath := filepath.Join(dir, "quickstart-meta.md")
	if err := res.SaveCSV(csvPath); err != nil {
		log.Fatal(err)
	}
	if err := res.SaveMetadata(metaPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRecorded: %s and %s\n", csvPath, metaPath)
	fmt.Printf("Stopping: %s after %d runs (%s rule)\n", res.StopReason, res.Runs, res.RuleName)
}
