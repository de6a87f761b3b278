// Command sharp-experiments regenerates the paper's tables and figures on
// the simulated testbed (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	sharp-experiments list
//	sharp-experiments all [--seed 2024] [--out results/]
//	sharp-experiments fig6 table5 ...
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sharp/internal/cache"
	"sharp/internal/experiments"
	"sharp/internal/fsx"
	"sharp/internal/obs"
)

// metrics is the optional --metrics-addr registry (nil without the flag).
var metrics *obs.Registry

func main() {
	seed := flag.Uint64("seed", 2024, "experiment seed (results are deterministic per seed)")
	out := flag.String("out", "", "also write each result to <out>/<id>.md")
	resume := flag.Bool("resume", false, "skip experiments whose <out>/<id>.md already exists (continue an interrupted regeneration)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines fanning each experiment's benchmarks/machines/days (1 = sequential; output is byte-identical at any value)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while regenerating")
	cacheDir := flag.String("cache-dir", "", "content-addressed sample cache directory (re-regenerations replay cached draws bit-identically)")
	flag.Parse()
	// SIGINT/SIGTERM stop the regeneration between experiments; every
	// completed experiment's file is already atomically in place, so
	// re-running with --resume picks up exactly where it stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	experiments.SetParallelism(*parallel)
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(ctx, *metricsAddr, obs.NewRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "sharp-experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		metrics = srv.Registry()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
	}
	var store *cache.Store
	if *cacheDir != "" {
		var err error
		store, err = cache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sharp-experiments:", err)
			os.Exit(1)
		}
		store.Registry = metrics // hit/miss rates on /metrics when both are on
		experiments.SetCache(store)
	}

	args := flag.Args()
	if len(args) == 0 || args[0] == "list" {
		printList(os.Stdout)
		return
	}
	ids := args
	if args[0] == "all" {
		ids = experiments.IDs()
	}
	err := execute(ctx, os.Stdout, ids, *seed, *out, *resume)
	if store != nil {
		if cerr := store.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "sharp-experiments: cache counters:", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharp-experiments:", err)
		os.Exit(1)
	}
}

// printList writes the experiment index.
func printList(w io.Writer) {
	fmt.Fprintln(w, "Experiments (paper tables and figures):")
	for _, id := range experiments.IDs() {
		fmt.Fprintln(w, "  -", id)
	}
	fmt.Fprintln(w, "\nRun with: sharp-experiments all | sharp-experiments <id> [<id>...]")
}

// execute regenerates each experiment, printing results to w and optionally
// writing per-experiment files under outDir (atomically: an interrupt or
// crash never leaves a half-written result file). With resume, experiments
// whose output file already exists are skipped. The first failure is
// returned after all ids have been attempted; a cancelled context stops
// between experiments.
func execute(ctx context.Context, w io.Writer, ids []string, seed uint64, outDir string, resume bool) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	var firstErr error
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "interrupted; rerun with --resume to continue\n")
			return err
		}
		if resume && outDir != "" {
			if _, err := os.Stat(filepath.Join(outDir, id+".md")); err == nil {
				fmt.Fprintf(w, "skip %s: %s/%s.md exists\n", id, outDir, id)
				continue
			}
		}
		start := time.Now()
		rep, err := experiments.Run(id, seed)
		if metrics != nil {
			status := "ok"
			if err != nil {
				status = "error"
			}
			metrics.Counter("sharp_experiments_total",
				"Paper experiments regenerated.", "status", status).Inc()
			metrics.Histogram("sharp_experiment_duration_seconds",
				"Wall-clock regeneration time per experiment.",
				[]float64{.1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120},
				"id", id).Observe(time.Since(start).Seconds())
		}
		if err != nil {
			fmt.Fprintf(w, "ERROR %s: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		text := rep.Render()
		fmt.Fprintf(w, "%s\n(%s regenerated in %v)\n\n%s\n", text, id,
			time.Since(start).Round(time.Millisecond),
			"────────────────────────────────────────────────────────────")
		if outDir != "" {
			path := filepath.Join(outDir, id+".md")
			if err := fsx.WriteFile(path, []byte(text), 0o644); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}
