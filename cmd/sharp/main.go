// Command sharp is the SHARP launcher CLI: it runs measurement experiments
// over the available backends with dynamic stopping rules, records
// tidy-data CSV logs plus metadata, renders reports, compares
// distributions, and recreates experiments from their own records.
//
// Usage:
//
//	sharp run       --workload hotspot --backend sim --machine machine1 --rule ks
//	sharp compare   --workload bfs-CUDA --machine machine1 --machine2 machine3
//	sharp report    results.csv
//	sharp classify  results.csv
//	sharp recreate  metadata.md
//	sharp rules
//	sharp benchmarks
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sharp/internal/backend"
	"sharp/internal/budget"
	"sharp/internal/config"
	"sharp/internal/core"
	"sharp/internal/duet"
	"sharp/internal/faas"
	"sharp/internal/fsx"
	"sharp/internal/kernels"
	"sharp/internal/microbench"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/regress"
	"sharp/internal/report"
	"sharp/internal/resilience"
	"sharp/internal/rodinia"
	"sharp/internal/similarity"
	"sharp/internal/stats"
	"sharp/internal/stopping"
	"sharp/internal/sweep"
	"sharp/internal/textplot"
)

func main() {
	// SIGINT/SIGTERM cancel the context instead of killing the process, so
	// campaigns stop at a run boundary, flush their logs, checkpoint their
	// metadata, and leave a resumable state behind (sharp run --resume).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sharp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "run":
		return cmdRun(ctx, args[1:])
	case "compare":
		return cmdCompare(ctx, args[1:])
	case "report":
		return cmdReport(args[1:])
	case "classify":
		return cmdClassify(args[1:])
	case "recreate":
		return cmdRecreate(ctx, args[1:])
	case "regress":
		return cmdRegress(args[1:])
	case "trend":
		return cmdTrend(args[1:])
	case "duet":
		return cmdDuet(ctx, args[1:])
	case "sweep":
		return cmdSweep(ctx, args[1:])
	case "convert":
		return cmdConvert(args[1:])
	case "cache":
		return cmdCache(args[1:])
	case "days":
		return cmdDays(ctx, args[1:])
	case "rules":
		fmt.Println("Available stopping rules (use with --rule):")
		for _, name := range stopping.Names() {
			fmt.Println("  -", name)
		}
		return nil
	case "benchmarks":
		var rows [][]string
		for _, b := range rodinia.Suite() {
			kind := "CPU"
			if b.CUDA {
				kind = "CUDA"
			}
			rows = append(rows, []string{b.Name, kind, b.Params})
		}
		fmt.Println("Rodinia suite (Table II):")
		fmt.Print(textplot.Table([]string{"Benchmark", "Class", "Parameters"}, rows))
		fmt.Println("\nBuilt-in microbenchmarks (--backend kernel):")
		var micro [][]string
		for _, spec := range microbench.All() {
			micro = append(micro, []string{spec.Name, spec.Description})
		}
		fmt.Print(textplot.Table([]string{"Function", "Stresses"}, micro))
		return nil
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Println(`sharp — distribution-based reproducible performance evaluation

Commands:
  run         run a measurement experiment with a dynamic stopping rule
  compare     measure a workload on two machines and compare distributions
  report      render a report from a tidy-data CSV log
  classify    characterize the distribution in a CSV log
  recreate    re-run an experiment from its metadata record
  regress     regression-gate a new CSV log against a baseline log
  trend       change-point analysis over an ordered series of campaign logs
  duet        paired (duet) comparison of two workloads on one backend
  sweep       run a factorial design over workloads x machines x days
  convert     convert a tidy-data log between CSV and binary (.sharpb)
  cache       inspect or prune a content-addressed result cache directory
  days        day-to-day reproducibility study (Fig. 5b-style heatmaps)
  rules       list stopping rules
  benchmarks  list the Rodinia suite (Table II)

Run 'sharp <command> -h' for command flags.`)
}

// runFlags defines the flags shared by run/compare/days/duet.
type runFlags struct {
	// s holds the campaign flags, filled in place; spec completes it.
	s             core.Spec
	backendName   string
	machineName   string
	faasURL       string
	invokeTimeout time.Duration
	chaos         float64
	outCSV        string
	outMeta       string
	format        string
	resume        bool
	flushEvery    int
	fsync         bool
	segmentRows   int
	quiet         bool
	trace         string
	progress      bool
	metricsAddr   string
}

func (rf *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&rf.s.Workload, "workload", "", "workload/benchmark name (see 'sharp benchmarks')")
	fs.StringVar(&rf.backendName, "backend", "sim", "backend: sim | kernel | faas")
	fs.StringVar(&rf.machineName, "machine", "machine1", "simulated machine (sim backend)")
	fs.StringVar(&rf.faasURL, "url", "http://127.0.0.1:8080", "FaaS platform URL (faas backend)")
	fs.DurationVar(&rf.invokeTimeout, "invoke-timeout", 0, "faas backend: per-invoke deadline when neither --timeout nor the context sets one (0 = 30s default, <0 = none)")
	fs.StringVar(&rf.s.Rule.Kind, "rule", "meta", "stopping rule (see 'sharp rules')")
	fs.Float64Var(&rf.s.Rule.Threshold, "threshold", 0, "rule threshold (0 = rule default)")
	fs.IntVar(&rf.s.Rule.MaxSamples, "max", 1000, "maximum runs")
	fs.IntVar(&rf.s.Rule.MinSamples, "min", 10, "minimum runs")
	fs.IntVar(&rf.s.Day, "day", 1, "measurement day (sim backend)")
	fs.Uint64Var(&rf.s.Seed, "seed", 42, "experiment seed")
	fs.IntVar(&rf.s.Concurrency, "concurrency", 1, "parallel instances per run")
	fs.IntVar(&rf.s.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines executing runs between stopping-rule checks (1 = sequential; results are deterministic either way)")
	fs.IntVar(&rf.s.WarmupRuns, "warmup", 0, "warm-up runs (not recorded)")
	fs.DurationVar(&rf.s.Timeout, "timeout", 0, "per-instance timeout")
	fs.IntVar(&rf.s.Retry.MaxAttempts, "retries", 1, "total attempts per run (>1 enables retry with backoff)")
	fs.DurationVar(&rf.s.Retry.BaseDelay, "retry-backoff", 0, "base retry backoff (0 = 10ms default)")
	fs.Float64Var(&rf.s.FailureBudget.MaxFraction, "failure-budget", 0, "abort past this failed-run fraction (0 = default 0.5, <0 disables)")
	fs.IntVar(&rf.s.FailureBudget.MaxConsecutive, "max-consecutive-failures", 0, "abort after this many consecutive failed runs (0 = default 10, <0 disables)")
	fs.Float64Var(&rf.chaos, "chaos", 0, "fault-injection rate in [0,1): deterministic errors (60%), timeouts (30%), latency spikes (10%)")
	fs.StringVar(&rf.outCSV, "csv", "", "stream the tidy-data CSV log to this path while the campaign runs")
	fs.StringVar(&rf.outMeta, "meta", "", "write metadata record to this path")
	fs.StringVar(&rf.format, "format", "auto", "log encoding for --csv: csv | binary | auto (by extension: .sharpb = binary)")
	fs.BoolVar(&rf.resume, "resume", false, "continue an interrupted campaign from --csv (and --meta's checkpoint if present); requires the same flags as the original run")
	fs.IntVar(&rf.flushEvery, "flush-every", 1, "cut the log into flush units of N rows, pushed to the OS once per run (0 = buffer until close)")
	fs.BoolVar(&rf.fsync, "fsync", false, "fsync the log once per run that completes a flush unit (crash-proof, slower)")
	fs.IntVar(&rf.segmentRows, "segment-rows", 0, "roll binary logs into ~N-row segments under <csv>.seg/ (0 = single file); repair and resume then touch only the last segment")
	fs.BoolVar(&rf.quiet, "quiet", false, "suppress the report; print one summary line")
	fs.StringVar(&rf.trace, "trace", "", "write a JSONL campaign event trace to this path ('-' = stderr)")
	fs.BoolVar(&rf.progress, "progress", false, "render live campaign progress on stderr")
	fs.StringVar(&rf.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
}

// observability assembles the campaign tracer requested by --trace,
// --progress and --metrics-addr. The returned cleanup flushes the trace file
// and shuts the metrics sidecar down; cancelling ctx (SIGINT/SIGTERM) also
// shuts the sidecar down, so the listener never outlives the signal. It is
// safe to call when no sink was requested (the tracer is nil then, which
// disables tracing).
func (rf *runFlags) observability(ctx context.Context) (obs.Tracer, func(), error) {
	var tracers []obs.Tracer
	var closers []func()
	if rf.trace != "" {
		var w io.Writer = struct{ io.Writer }{os.Stderr} // hide stderr's Close
		var publish func() error
		if rf.trace != "-" {
			// Atomic trace export: events accumulate in a temp file that is
			// renamed into place on clean shutdown (including SIGINT, which
			// cancels the context and lets these closers run), so a crash
			// mid-campaign never leaves a torn trace at the target path.
			f, err := fsx.Create(rf.trace)
			if err != nil {
				return nil, nil, err
			}
			w, publish = f, f.Close
		}
		jt := obs.NewJSONL(w)
		tracers = append(tracers, jt)
		closers = append(closers, func() {
			if err := obs.Close(jt); err != nil {
				fmt.Fprintln(os.Stderr, "sharp: trace:", err)
			}
			if publish != nil {
				if err := publish(); err != nil {
					fmt.Fprintln(os.Stderr, "sharp: trace:", err)
				}
			}
		})
	}
	if rf.progress {
		tracers = append(tracers, obs.NewProgress(os.Stderr))
	}
	if rf.metricsAddr != "" {
		srv, err := obs.ServeMetrics(ctx, rf.metricsAddr, obs.NewRegistry())
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
		tracers = append(tracers, obs.NewMetricsSink(srv.Registry()))
		closers = append(closers, func() { _ = srv.Close() })
	}
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	if len(tracers) == 0 {
		return nil, cleanup, nil
	}
	return obs.Multi(tracers...), cleanup, nil
}

// spec completes the campaign spec the flags describe, measured on
// machineName (the sim backend's machine; it also names the experiment):
// the backend, seeded with the experiment seed. Retries off records no
// retry policy, as a spec from the service or a sweep does.
func (rf *runFlags) spec(machineName string) core.Spec {
	s := rf.s
	s.Name = fmt.Sprintf("%s@%s", s.Workload, machineName)
	if !s.Retry.Enabled() {
		s.Retry = resilience.Policy{}
	}
	s.Backend = core.BackendSpec{Kind: rf.backendName}
	switch rf.backendName {
	case "sim":
		s.Backend.Machine, s.Backend.Seed = machineName, s.Seed
	case "kernel":
		s.Backend.Kind = "inprocess" // the name its rows record
	}
	if rf.chaos > 0 {
		s.Backend.Chaos = &backend.ChaosConfig{
			Seed:        s.Seed,
			ErrorRate:   rf.chaos * 0.6,
			TimeoutRate: rf.chaos * 0.3,
			LatencyRate: rf.chaos * 0.1,
		}
	}
	return s
}

// backend builds the backend stack of a spec filled by rf.spec: the live
// kernel or faas backend --backend names (a sim one is rebuilt from the
// spec), with chaos fault injection when --chaos is set.
func (rf *runFlags) backend(s core.Spec) (backend.Backend, error) {
	if rf.chaos >= 1 {
		return nil, fmt.Errorf("--chaos rate %v out of range [0,1)", rf.chaos)
	}
	var live backend.Backend
	switch rf.backendName {
	case "sim":
	case "kernel", "inprocess":
		live = kernelBackend()
	case "faas":
		fc := faas.NewClient(rf.faasURL)
		fc.InvokeTimeout = rf.invokeTimeout
		live = fc
	default:
		return nil, fmt.Errorf("unknown backend %q (sim | kernel | faas)", rf.backendName)
	}
	return s.Backend.Build(live)
}

// kernelBackend registers every Rodinia kernel plus the eleven built-in
// microbenchmark functions as in-process workloads, so
// 'sharp run --backend kernel' measures real computations.
func kernelBackend() *backend.InProcess {
	b := backend.NewInProcess()
	microbench.Register(b)
	for _, bench := range rodinia.Suite() {
		ctor := bench.NewKernel
		b.Register(bench.Name, func(ctx context.Context, seed uint64) (map[string]float64, error) {
			k := ctor(seed)
			res, err := k.Run()
			if err != nil {
				return nil, err
			}
			if err := k.Verify(res); err != nil {
				return nil, err
			}
			m := map[string]float64{"ops": float64(res.Ops), "checksum": res.Checksum}
			if lk, ok := k.(*kernels.Leukocyte); ok {
				// Fine-grained phase metrics (Fig. 7 pipeline).
				if _, phases, err := lk.RunPhases(); err == nil {
					m["detection_ops"] = float64(phases[0])
					m["tracking_ops"] = float64(phases[1])
				}
			}
			return m, nil
		})
	}
	return b
}

// experiment builds the campaign of a spec filled by rf.spec.
func (rf *runFlags) experiment(s core.Spec) (core.Experiment, error) {
	b, err := rf.backend(s)
	if err != nil {
		return core.Experiment{}, err
	}
	e, err := s.Experiment(b)
	if rf.backendName == "faas" {
		// Transport-aware retry classification: refused/reset/timeout and
		// 5xx are transient; 4xx are configuration errors, never retried.
		e.Retry.Retryable = faas.RetryableError
	}
	return e, err
}

// newLauncher builds a Launcher, honoring the SHARP_CLOCK environment
// variable (RFC3339 timestamp or integer Unix seconds): when set, the clock
// is frozen at that instant, making row timestamps — and therefore whole
// CSV logs — reproducible across processes. The crash-recovery end-to-end
// test uses it to prove an interrupted-and-resumed campaign is byte-identical
// to an uninterrupted one.
func newLauncher() *core.Launcher {
	l := core.NewLauncher()
	if v := os.Getenv("SHARP_CLOCK"); v != "" {
		if t, err := time.Parse(time.RFC3339, v); err == nil {
			l.Clock = func() time.Time { return t }
		} else if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
			t := time.Unix(secs, 0).UTC()
			l.Clock = func() time.Time { return t }
		} else {
			fmt.Fprintf(os.Stderr, "sharp: ignoring unparseable SHARP_CLOCK %q\n", v)
		}
	}
	return l
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	configPath := fs.String("config", "", "load the experiment from a JSON/YAML file (overrides other flags)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var exp core.Experiment
	if *configPath != "" {
		doc, err := config.ParseFile(*configPath)
		if err != nil {
			return err
		}
		exp, err = core.ExperimentFromConfig(doc, "experiment")
		if err != nil {
			return err
		}
		// Observability can also be configured from the file; flags win.
		if rf.trace == "" {
			rf.trace = doc.String("observability.trace", "")
		}
		if !rf.progress {
			rf.progress = doc.Bool("observability.progress", false)
		}
		if rf.metricsAddr == "" {
			rf.metricsAddr = doc.String("observability.metrics_addr", "")
		}
	} else {
		if rf.s.Workload == "" {
			return fmt.Errorf("run: --workload is required")
		}
		var err error
		exp, err = rf.experiment(rf.spec(rf.machineName))
		if err != nil {
			return err
		}
	}
	tracer, cleanup, err := rf.observability(ctx)
	if err != nil {
		return err
	}
	defer cleanup()
	launcher := newLauncher()
	launcher.Tracer = tracer

	var res *core.Result
	var runErr error
	if rf.resume {
		res, runErr = rf.resumeCampaign(ctx, launcher, exp)
	} else {
		res, runErr = rf.streamCampaign(ctx, launcher, exp)
	}
	// Budget aborts and interrupts still yield a partial result: persist
	// what we have (failures are data, interrupts are checkpoints) and
	// report; the error is returned at the end.
	if runErr != nil && !errors.Is(runErr, core.ErrFailureBudget) && !errors.Is(runErr, core.ErrInterrupted) {
		return runErr
	}
	if rf.outMeta != "" {
		md := res.Metadata()
		if errors.Is(runErr, core.ErrInterrupted) {
			md.SetCheckpoint(res.Runs, len(res.Rows))
		}
		if err := md.WriteFile(rf.outMeta); err != nil {
			return errors.Join(runErr, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", rf.outMeta)
	}
	if errors.Is(runErr, core.ErrInterrupted) && rf.outCSV != "" {
		fmt.Fprintf(os.Stderr, "interrupted after run %d; continue with the same flags plus --resume\n", res.Runs)
	}
	if rf.quiet {
		sum, _ := res.Summary()
		fmt.Printf("%s: n=%d mean=%.4g median=%.4g modes=%d (%s)\n",
			exp.Name, sum.N, sum.Mean, sum.Median, res.Modes(), res.StopReason)
		return runErr
	}
	fmt.Print(report.Result(res, report.Options{}))
	return runErr
}

// csvOptions is the flush policy and encoding the --flush-every/--fsync/
// --format flags select.
func (rf *runFlags) csvOptions() (record.Options, error) {
	format, err := record.ParseFormat(rf.format)
	if err != nil {
		return record.Options{}, err
	}
	// Replay (resume, cache hits) decodes binary logs with the same
	// parallelism budget the campaign itself runs under.
	record.SetReadParallelism(rf.s.Parallel)
	return record.Options{FlushEvery: rf.flushEvery, Sync: rf.fsync, Format: format, SegmentRows: rf.segmentRows}, nil
}

// streamCampaign runs the experiment, streaming rows to --csv (when set)
// through a durable writer as they are produced, so an interrupt or crash
// preserves every flushed row. The writer is closed (and its tail flushed)
// before returning, whatever the campaign outcome.
func (rf *runFlags) streamCampaign(ctx context.Context, launcher *core.Launcher, exp core.Experiment) (*core.Result, error) {
	var w *record.Writer
	if rf.outCSV != "" {
		opts, err := rf.csvOptions()
		if err != nil {
			return nil, err
		}
		if w, err = record.CreateDurable(rf.outCSV, opts); err != nil {
			return nil, err
		}
		launcher.Log = w
	}
	res, runErr := launcher.Run(ctx, exp)
	if w != nil {
		if err := w.Close(); err != nil {
			return res, errors.Join(runErr, err)
		}
		if res != nil {
			fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", rf.outCSV, len(res.Rows))
		}
	}
	return res, runErr
}

// resumeCampaign continues an interrupted campaign from the --csv log.
// Recovery first repairs the log (record.Reopen): with a checkpoint in
// --meta (graceful interrupt) the log is cut to the checkpointed row count —
// normally a no-op, since the interrupt flushed everything; without one
// (hard crash) the possibly-incomplete trailing run block and any torn final
// line are dropped and that run is re-executed. The repaired rows replay
// through the stopping rule, the deterministic backends fast-forward past
// them, and the campaign continues exactly where it stopped, appending to
// the same log.
func (rf *runFlags) resumeCampaign(ctx context.Context, launcher *core.Launcher, exp core.Experiment) (*core.Result, error) {
	if rf.outCSV == "" {
		return nil, fmt.Errorf("run: --resume requires --csv (the log to continue)")
	}
	checkpoint, ckRun := -1, 0
	if rf.outMeta != "" {
		if md, err := record.ParseMetadataFile(rf.outMeta); err == nil {
			if run, rows, ok := md.Checkpoint(); ok {
				checkpoint, ckRun = rows, run
			}
		}
	}
	opts, err := rf.csvOptions()
	if err != nil {
		return nil, err
	}
	w, rows, dropped, err := record.Reopen(rf.outCSV, checkpoint, opts)
	if err != nil {
		return nil, fmt.Errorf("run: resume: %w", err)
	}
	if checkpoint >= 0 {
		fmt.Fprintf(os.Stderr, "resuming from checkpoint: run %d (%d rows)\n", ckRun, checkpoint)
	} else if dropped > 0 {
		fmt.Fprintf(os.Stderr, "resuming without checkpoint: dropped trailing run %d for re-execution\n", dropped)
	}
	launcher.Log = w
	res, runErr := launcher.Resume(ctx, exp, rows)
	if err := w.Close(); err != nil {
		return res, errors.Join(runErr, err)
	}
	if res != nil {
		fmt.Fprintf(os.Stderr, "wrote %s (%d rows, %d replayed)\n", rf.outCSV, len(res.Rows), len(rows))
	}
	return res, runErr
}

func cmdCompare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	machine2 := fs.String("machine2", "machine3", "second simulated machine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if rf.s.Workload == "" {
		return fmt.Errorf("compare: --workload is required")
	}
	tracer, cleanup, err := rf.observability(ctx)
	if err != nil {
		return err
	}
	defer cleanup()
	launcher := core.NewLauncher()
	launcher.Tracer = tracer
	expA, err := rf.experiment(rf.spec(rf.machineName))
	if err != nil {
		return err
	}
	resA, err := launcher.Run(ctx, expA)
	if err != nil {
		return err
	}
	expB, err := rf.experiment(rf.spec(*machine2))
	if err != nil {
		return err
	}
	resB, err := launcher.Run(ctx, expB)
	if err != nil {
		return err
	}
	cmp, err := core.CompareResults(resA, resB)
	if err != nil {
		return err
	}
	fmt.Print(report.Comparison(cmp, resA.Samples, resB.Samples, report.Options{}))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	metric := fs.String("metric", backend.MetricExecTime, "metric to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("report: usage: sharp report <log.csv>")
	}
	rows, err := record.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	values := record.Values(record.Select(rows, record.Filter{Metric: *metric}))
	if len(values) == 0 {
		return fmt.Errorf("report: no %q rows in %s", *metric, fs.Arg(0))
	}
	fmt.Print(report.Distribution(*metric, values, report.Options{}))
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	metric := fs.String("metric", backend.MetricExecTime, "metric to classify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("classify: usage: sharp classify <log.csv>")
	}
	rows, err := record.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	values := record.Values(record.Select(rows, record.Filter{Metric: *metric}))
	if len(values) == 0 {
		return fmt.Errorf("classify: no %q rows in %s", *metric, fs.Arg(0))
	}
	p := stats.CountModes(values)
	prof := core.Result{Samples: values}
	profile := prof.Profile()
	fmt.Printf("class: %s\nmodes: %d\nn: %d\nskewness: %.3f\nkurtosis: %.3f\nlag-1 autocorr: %.3f\nESS: %.1f\n",
		profile.Class, p, profile.N, profile.Skewness, profile.Kurtosis, profile.Lag1, profile.ESS)
	return nil
}

func cmdRegress(args []string) error {
	fs := flag.NewFlagSet("regress", flag.ExitOnError)
	metric := fs.String("metric", backend.MetricExecTime, "metric to gate on")
	alpha := fs.Float64("alpha", 0.01, "significance level")
	tolerance := fs.Float64("tolerance", 2, "tolerated median slowdown (percent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("regress: usage: sharp regress <baseline.csv> <current.csv>")
	}
	out, err := regress.CheckFiles(fs.Arg(0), fs.Arg(1), *metric, regress.Config{
		Alpha:        *alpha,
		TolerancePct: *tolerance,
	})
	if err != nil {
		return err
	}
	fmt.Print(out.Render())
	if out.Failed() {
		return fmt.Errorf("performance regression detected")
	}
	return nil
}

func cmdDays(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("days", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	nDays := fs.Int("days", 5, "number of measurement days")
	runs := fs.Int("runs", 1000, "runs per day")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if rf.s.Workload == "" {
		return fmt.Errorf("days: --workload is required")
	}
	launcher := core.NewLauncher()
	groups := make([][]float64, *nDays)
	labels := make([]string, *nDays)
	for d := 1; d <= *nDays; d++ {
		s := rf.spec(rf.machineName)
		s.Name = fmt.Sprintf("%s-day%d", rf.s.Workload, d)
		s.Rule = stopping.Spec{Kind: "fixed", Threshold: float64(*runs)}
		s.Day = d
		exp, err := rf.experiment(s)
		if err != nil {
			return err
		}
		res, err := launcher.Run(ctx, exp)
		if err != nil {
			return err
		}
		groups[d-1] = res.Samples
		labels[d-1] = fmt.Sprintf("day%d", d)
		sum, _ := res.Summary()
		fmt.Printf("day %d: mean %.4fs median %.4fs modes %d\n",
			d, sum.Mean, sum.Median, res.Modes())
	}
	// Both heatmaps share one set of prepared groups (each day sorted once)
	// and fan the upper-triangle pairs across --parallel workers.
	gs := similarity.NewGroups(groups)
	namd, err := similarity.MatrixGroups(similarity.MetricNAMD, gs, rf.s.Parallel)
	if err != nil {
		return err
	}
	ks, err := similarity.MatrixGroups(similarity.MetricKS, gs, rf.s.Parallel)
	if err != nil {
		return err
	}
	fmt.Printf("\nNAMD (point-summary similarity):\n\n%s\n", textplot.Heatmap(labels, labels, namd))
	fmt.Printf("KS (distribution similarity):\n\n%s\n", textplot.Heatmap(labels, labels, ks))
	dissimilar := 0
	total := 0
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			total++
			if ks[i][j] > 0.1 {
				dissimilar++
			}
		}
	}
	fmt.Printf("%d/%d day pairs dissimilar under KS (> 0.1)\n", dissimilar, total)
	return nil
}

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	d := sweep.Design{Name: "cli-sweep"} // the flags fill it in place
	workloads := fs.String("workloads", "", "comma-separated workloads (required)")
	machines := fs.String("machines", "machine1,machine3", "comma-separated machines")
	days := fs.String("days", "1", "comma-separated day indices")
	fs.StringVar(&d.RuleName, "rule", "ks", "stopping rule per cell")
	fs.Float64Var(&d.Threshold, "threshold", 0.1, "rule threshold")
	fs.IntVar(&d.MaxRuns, "max", 300, "maximum runs per cell")
	fs.Uint64Var(&d.Seed, "seed", 42, "experiment seed")
	fs.IntVar(&d.Parallel, "parallel", runtime.GOMAXPROCS(0), "cells measured concurrently (1 = sequential; results identical either way)")
	outCSV := fs.String("csv", "", "write the combined tidy log to this path")
	fs.StringVar(&d.CacheDir, "cache-dir", "", "content-addressed result cache: completed cells are stored here and replayed on re-runs")
	fs.IntVar(&d.Budget, "budget", 0, "total measured-run budget across all cells (<= 0 = unlimited: every cell runs to its rule's completion)")
	fs.StringVar(&d.BudgetPolicy, "budget-policy", "ucb", "budget allocation policy: ucb, halving, or rr")
	fs.IntVar(&d.BatchRuns, "batch-runs", 10, "runs granted to a cell per budget allocation")
	ledgerPath := fs.String("budget-ledger", "", "budget ledger checkpoint of a capped sweep (--budget > 0): loaded to resume spending, saved after the sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workloads == "" {
		return fmt.Errorf("sweep: --workloads is required")
	}
	d.Workloads, d.Machines = splitTrim(*workloads), splitTrim(*machines)
	for _, day := range strings.Split(*days, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(day))
		if err != nil {
			return fmt.Errorf("sweep: bad day %q", day)
		}
		d.Days = append(d.Days, n)
	}
	if c := newLauncher().Clock; c != nil {
		d.SetClock(c) // SHARP_CLOCK: byte-reproducible sweep CSVs
	}
	capped := d.Budget > 0
	if capped && *ledgerPath != "" {
		if prior, lerr := budget.LoadLedger(*ledgerPath); lerr == nil {
			d.BudgetSpent = prior.Spent
			fmt.Fprintf(os.Stderr, "resuming budget ledger %s: %d runs already spent\n",
				*ledgerPath, prior.Spent)
		}
	}
	out, err := sweep.Run(ctx, d)
	if capped && out != nil {
		lg := out.Budget
		if *ledgerPath != "" {
			if serr := lg.Save(*ledgerPath); serr != nil {
				fmt.Fprintf(os.Stderr, "sweep: saving budget ledger: %v\n", serr)
			}
		}
		status := "remaining"
		if lg.Exhausted {
			status = "exhausted"
		}
		fmt.Fprintf(os.Stderr, "budget: policy=%s spent=%d/%d (%s), %d allocations across %d cells\n",
			lg.Policy, lg.Spent, lg.Budget, status, len(lg.Allocations), len(lg.Cells))
	}
	if err != nil {
		return err
	}
	if *outCSV != "" {
		if err := out.SaveCSV(*outCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outCSV)
	}
	fmt.Print(out.Render())
	for _, factor := range []string{"workload", "machine", "day"} {
		eff, err := out.EffectOf(factor)
		if err != nil {
			return err
		}
		if len(eff.Levels) < 2 {
			continue
		}
		fmt.Printf("\nEffect of %s:\n\n", factor)
		var rows [][]string
		for _, l := range eff.Levels {
			rows = append(rows, []string{l.Level, fmt.Sprintf("%d", l.N),
				fmt.Sprintf("%.4g", l.Mean), fmt.Sprintf("%.4g", l.Median),
				fmt.Sprintf("%.4g", l.P95), fmt.Sprintf("%d", l.Modes)})
		}
		fmt.Print(textplot.Table([]string{"level", "n", "mean", "median", "p95", "modes"}, rows))
	}
	return nil
}

// splitTrim splits a comma list and trims whitespace.
func splitTrim(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func cmdDuet(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("duet", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	workloadB := fs.String("workload2", "", "second workload (required)")
	pairs := fs.Int("pairs", 500, "maximum pairs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if rf.s.Workload == "" || *workloadB == "" {
		return fmt.Errorf("duet: --workload and --workload2 are required")
	}
	be, err := rf.backend(rf.spec(rf.machineName))
	if err != nil {
		return err
	}
	res, err := duet.Run(ctx, be, duet.Config{
		WorkloadA:      rf.s.Workload,
		WorkloadB:      *workloadB,
		MaxPairs:       *pairs,
		Day:            rf.s.Day,
		Seed:           rf.s.Seed,
		AlternateOrder: true,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func cmdRecreate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("recreate", flag.ExitOnError)
	outCSV := fs.String("csv", "", "write the reproduction's CSV log to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("recreate: usage: sharp recreate <metadata.md>")
	}
	md, err := record.ParseMetadataFile(fs.Arg(0))
	if err != nil {
		return err
	}
	exp, err := core.RecreateExperiment(md, map[string]backend.Backend{
		"inprocess": kernelBackend(),
	})
	if err != nil {
		return err
	}
	rule := "meta"
	if exp.Rule != nil {
		rule = exp.Rule.Name()
	}
	fmt.Fprintf(os.Stderr, "recreating experiment %q (workload %s, rule %s)\n",
		exp.Name, exp.Workload, rule)
	// The same launcher as sharp run (SHARP_CLOCK honoured), and a
	// failure-budget abort still saves its partial log, so a recreated log
	// compares file to file with the original.
	res, err := newLauncher().Run(ctx, exp)
	if err != nil && !errors.Is(err, core.ErrFailureBudget) {
		return err
	}
	if *outCSV != "" {
		if serr := res.SaveCSV(*outCSV); serr != nil {
			return errors.Join(err, serr)
		}
	}
	fmt.Print(report.Result(res, report.Options{}))
	return err
}
