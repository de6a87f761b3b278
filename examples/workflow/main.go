// Workflow execution (paper §IV-b): parse a Serverless Workflow document,
// print its dependency structure and Makefile translation, then execute it
// natively — each action measured by the SHARP launcher with auto-stopping.
//
//	go run ./examples/workflow
package main

import (
	"context"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"strings"

	"sharp/internal/core"
	"sharp/internal/stopping"
	"sharp/internal/workflow"
)

func main() {
	// Locate pipeline.yaml relative to this source file so the example runs
	// from any working directory.
	_, self, _, _ := runtime.Caller(0)
	path := filepath.Join(filepath.Dir(self), "pipeline.yaml")

	w, err := workflow.ParseFile(path)
	if err != nil {
		log.Fatal(err)
	}
	levels, err := w.Levels()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# Workflow %q\n\n", w.Name)
	for i, level := range levels {
		fmt.Printf("level %d: %s\n", i, strings.Join(level, ", "))
	}

	fmt.Println("\n## Makefile translation (the paper's 'make' path)")
	fmt.Println()
	fmt.Println(w.Makefile("sharp"))

	fmt.Println("## Native execution on the simulated testbed")
	fmt.Println()
	launcher := core.NewLauncher()
	err = w.Execute(context.Background(), func(ctx context.Context, task string, act workflow.Action) error {
		exp, err := core.Spec{
			Name:     task + "/" + act.Function,
			Workload: act.Function,
			Backend:  core.BackendSpec{Kind: "sim", Machine: "machine1", Seed: 42},
			Rule:     stopping.Spec{Kind: "ks", Threshold: 0.1, Bounds: stopping.Bounds{MaxSamples: 500}},
			Day:      1,
			Seed:     42,
		}.Experiment(nil)
		if err != nil {
			return err
		}
		res, err := launcher.Run(ctx, exp)
		if err != nil {
			return err
		}
		sum, _ := res.Summary()
		fmt.Printf("[%s] %s: %d runs, median %.3fs, %d mode(s) — %s\n",
			task, act.Function, res.Runs, sum.Median, res.Modes(), res.StopReason)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nworkflow complete")
}
