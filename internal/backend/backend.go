// Package backend implements SHARP's execution backends (§IV-a): the
// launcher delegates the actual running of a workload to a Backend, which
// may execute it in-process (Go functions / kernels), as a local OS process
// (user-provided binaries), against the simulated testbed (perfmodel), or
// over HTTP against a FaaS platform (package faas).
//
// A Backend invocation returns one Invocation record per concurrent
// instance; SHARP logs each in its own tidy-data row.
package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sharp/internal/obs"
)

// MetricExecTime is the canonical execution-time metric name.
const MetricExecTime = "exec_time"

// Request describes one measurement request to a backend.
type Request struct {
	// Workload names the function/benchmark to run.
	Workload string
	// Args are workload arguments (backend-specific interpretation).
	Args []string
	// Concurrency is the number of parallel instances (>= 1; 0 means 1).
	Concurrency int
	// Timeout bounds each instance (0 = no timeout).
	Timeout time.Duration
	// Cold requests a cold-start invocation where the backend supports the
	// distinction (FaaS).
	Cold bool
	// Run is the 1-based repetition index (threaded into seeds so each run
	// is a fresh deterministic draw).
	Run int
	// Day is the measurement-day coordinate for simulated backends.
	Day int
}

// Invocation is the result of one concurrent instance.
type Invocation struct {
	// Instance is the 1-based concurrent instance index.
	Instance int
	// Metrics holds every collected metric, always including exec_time
	// (in seconds).
	Metrics map[string]float64
	// Worker names the node that executed the instance (FaaS/sim).
	Worker string
	// Err is the per-instance failure, if any.
	Err error
	// Attempts is the number of attempts consumed to produce this result
	// when a retry decorator (resilience.Wrap) is in play; 0 means a single
	// undecorated attempt.
	Attempts int
}

// ExecTime returns the exec_time metric.
func (iv Invocation) ExecTime() float64 { return iv.Metrics[MetricExecTime] }

// Backend executes workloads.
type Backend interface {
	// Name identifies the backend ("inprocess", "process", "sim", "faas").
	Name() string
	// Invoke runs one measurement request and returns one Invocation per
	// concurrent instance. A non-nil error means the request as a whole
	// failed; per-instance failures are reported in Invocation.Err.
	Invoke(ctx context.Context, req Request) ([]Invocation, error)
	// Close releases backend resources.
	Close() error
}

// ErrUnknownWorkload is returned when a backend has no workload by the
// requested name.
var ErrUnknownWorkload = errors.New("backend: unknown workload")

// Unwrap strips decorator backends (Chaos, resilience.Wrap) and returns the
// innermost Backend. Decorators opt in by exposing an
// Unwrap() Backend method.
func Unwrap(b Backend) Backend {
	for {
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return b
		}
		b = u.Unwrap()
	}
}

// RunOrdered is implemented by stream-stateful backends (Sim, Chaos) whose
// per-run draws can be synthesized in canonical run order instead of
// arrival order. The parallel launcher enables the mode so that a run's
// value depends only on its run index — making concurrent execution
// bit-identical to sequential — and leaves it off everywhere else (the FaaS
// platform, for example, partitions one global run counter across
// per-worker backends, so each backend legitimately sees gaps).
type RunOrdered interface {
	// SetRunOrdered toggles canonical run-order draw synthesis.
	SetRunOrdered(on bool)
}

// RunSkipper is implemented by stream-stateful backends (Sim, Chaos) that
// can fast-forward their deterministic draw streams without executing runs.
// Resume uses it: after a crash, the continued campaign must see exactly the
// draws the uninterrupted campaign would have produced for the remaining
// runs, so the draws consumed by the already-recorded runs are discarded in
// the same order the original campaign consumed them.
type RunSkipper interface {
	// SkipRuns discards the draws that n measured runs of the workload/day
	// stream at the given concurrency would consume, advancing the stream
	// (and the run-ordered synthesis cursor) past them.
	SkipRuns(workload string, day, conc, n int) error
}

// SkipRuns fast-forwards the backend's deterministic streams past n measured
// runs. It calls the outermost RunSkipper in the decorator chain (that layer
// delegates inward itself: Chaos must interleave its fault draws with the
// decorated backend's value draws exactly as live execution would — a panic
// fault consumes no inner draws). It reports whether any layer skipped;
// false means the backend is stateless per run (InProcess hashes the run
// index) or remote, where there is nothing to fast-forward.
func SkipRuns(b Backend, workload string, day, conc, n int) (bool, error) {
	for {
		if rs, ok := b.(RunSkipper); ok {
			return true, rs.SkipRuns(workload, day, conc, n)
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return false, nil
		}
		b = u.Unwrap()
	}
}

// TraceSink is implemented by backends and decorators that emit
// observability events (Chaos injections, resilience.Wrap retry attempts).
// The launcher threads its tracer down the decorator chain via SetTracer so
// every execution layer reports into one event stream.
type TraceSink interface {
	// SetTracer installs the campaign event tracer (nil disables emission).
	SetTracer(t obs.Tracer)
}

// SetTracer walks the decorator chain of b (via Unwrap) and installs t on
// every layer implementing TraceSink. It reports whether any layer did.
func SetTracer(b Backend, t obs.Tracer) bool {
	any := false
	for {
		if ts, ok := b.(TraceSink); ok {
			ts.SetTracer(t)
			any = true
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return any
		}
		b = u.Unwrap()
	}
}

// SetRunOrdered walks the decorator chain of b (via Unwrap) and toggles
// run-ordered draw synthesis on every layer that supports it. It reports
// whether any layer did.
func SetRunOrdered(b Backend, on bool) bool {
	any := false
	for {
		if ro, ok := b.(RunOrdered); ok {
			ro.SetRunOrdered(on)
			any = true
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return any
		}
		b = u.Unwrap()
	}
}

// Func is an in-process workload: it performs the work and returns its
// metrics. exec_time is added automatically from wall-clock measurement if
// the function does not provide it.
type Func func(ctx context.Context, seed uint64) (map[string]float64, error)

// InProcess runs registered Go functions and measures wall time. It is the
// "Python microbenchmark" analogue of the paper's launcher: the workload
// runs inside the orchestrator process.
type InProcess struct {
	mu    sync.RWMutex
	funcs map[string]Func
}

// NewInProcess returns an empty in-process backend.
func NewInProcess() *InProcess {
	return &InProcess{funcs: map[string]Func{}}
}

// Register adds a workload under the given name, replacing any previous
// registration.
func (b *InProcess) Register(name string, f Func) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.funcs[name] = f
}

// Workloads lists registered workload names.
func (b *InProcess) Workloads() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.funcs))
	for k := range b.funcs {
		out = append(out, k)
	}
	return out
}

// Name implements Backend.
func (b *InProcess) Name() string { return "inprocess" }

// Invoke implements Backend: fans out Concurrency instances, each with a
// distinct deterministic seed derived from (Run, Instance).
func (b *InProcess) Invoke(ctx context.Context, req Request) ([]Invocation, error) {
	b.mu.RLock()
	f, ok := b.funcs[req.Workload]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, req.Workload)
	}
	conc := req.Concurrency
	if conc < 1 {
		conc = 1
	}
	out := make([]Invocation, conc)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			ictx := ctx
			var cancel context.CancelFunc
			if req.Timeout > 0 {
				ictx, cancel = context.WithTimeout(ctx, req.Timeout)
				defer cancel()
			}
			seed := uint64(req.Run)*1_000_003 + uint64(inst)
			start := time.Now()
			metrics, err := runFunc(ictx, f, seed)
			elapsed := time.Since(start).Seconds()
			if metrics == nil {
				metrics = map[string]float64{}
			}
			if _, has := metrics[MetricExecTime]; !has {
				metrics[MetricExecTime] = elapsed
			}
			out[inst] = Invocation{
				Instance: inst + 1,
				Metrics:  metrics,
				Worker:   "local",
				Err:      err,
			}
		}(i)
	}
	wg.Wait()
	return out, nil
}

// runFunc executes an in-process workload, converting panics into errors so
// a panicking Func fails its own instance instead of crashing the launcher.
func runFunc(ctx context.Context, f Func, seed uint64) (metrics map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			metrics, err = nil, fmt.Errorf("backend: workload panic: %v", r)
		}
	}()
	return f(ctx, seed)
}

// Close implements Backend.
func (b *InProcess) Close() error { return nil }
