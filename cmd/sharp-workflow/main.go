// Command sharp-workflow translates Serverless Workflow documents (JSON or
// the YAML subset) into Makefiles whose targets invoke the sharp launcher —
// the paper's workflow path (§IV-b) — or executes them natively against the
// simulated testbed.
//
// Usage:
//
//	sharp-workflow translate pipeline.yaml > Makefile
//	sharp-workflow run pipeline.yaml --machine machine1 --runs 50
//	sharp-workflow graph pipeline.yaml
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/stopping"
	"sharp/internal/workflow"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sharp-workflow:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		fmt.Println(`sharp-workflow — Serverless Workflow execution for SHARP

Commands:
  translate <file>   emit a Makefile invoking the sharp launcher
  run <file>         execute the workflow natively on the simulated testbed
  graph <file>       print the dependency levels`)
		return nil
	}
	switch args[0] {
	case "translate":
		return cmdTranslate(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "graph":
		return cmdGraph(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func cmdTranslate(args []string) error {
	fs := flag.NewFlagSet("translate", flag.ExitOnError)
	launcher := fs.String("launcher", "sharp", "launcher command for Makefile recipes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sharp-workflow translate <workflow.(json|yaml)>")
	}
	w, err := workflow.ParseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(w.Makefile(*launcher))
	return nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sharp-workflow graph <workflow.(json|yaml)>")
	}
	w, err := workflow.ParseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	levels, err := w.Levels()
	if err != nil {
		return err
	}
	fmt.Printf("workflow %q: %d tasks in %d levels\n", w.Name, len(w.Tasks), len(levels))
	for i, level := range levels {
		fmt.Printf("  level %d: %s\n", i, strings.Join(level, ", "))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	machineName := fs.String("machine", "machine1", "simulated machine")
	runs := fs.Int("runs", 50, "fixed runs per workload action")
	seed := fs.Uint64("seed", 42, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sharp-workflow run <workflow.(json|yaml)>")
	}
	w, err := workflow.ParseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if _, err := machine.ByName(*machineName); err != nil {
		return err
	}
	launcher := core.NewLauncher()
	err = w.Execute(context.Background(), func(ctx context.Context, task string, act workflow.Action) error {
		e, err := core.Spec{
			Name:     task + "/" + act.Function,
			Workload: act.Function,
			Backend:  core.BackendSpec{Kind: "sim", Machine: *machineName, Seed: *seed},
			Rule:     stopping.Spec{Kind: "fixed", Threshold: float64(*runs)},
			Day:      1,
			Seed:     *seed,
		}.Experiment(nil)
		if err != nil {
			return err
		}
		res, err := launcher.Run(ctx, e)
		if err != nil {
			return err
		}
		sum, _ := res.Summary()
		fmt.Printf("[%s] %s: n=%d mean=%.4gs median=%.4gs modes=%d\n",
			task, act.Function, sum.N, sum.Mean, sum.Median, res.Modes())
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("workflow %q complete\n", w.Name)
	return nil
}
