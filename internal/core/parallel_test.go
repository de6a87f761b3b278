package core

// Differential determinism tests for windowed (parallel) campaign execution:
// for every stopping rule, Launcher.Run with Parallel N > 1 must produce
// byte-identical SaveCSV output and streamed log bytes, identical samples
// and an identical StopReason to the sequential path — including under chaos
// fault injection, a failure-budget abort and a backend panic. Bound tests
// check the window from the backend's side: no run past the rule's next
// decision point is invoked, workers never run more than the window ahead
// of the merge, and every exit returns only once the workers have stopped.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

// fakeClock is a deterministic time source: every call advances one second,
// so per-run timestamps land in the CSV and any divergence in clock-call
// ordering between the two paths shows up as a byte difference.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

func newFakeLauncher() *Launcher {
	c := &fakeClock{t: time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)}
	return &Launcher{Clock: c.now}
}

// buildExperiment assembles a fresh experiment (fresh backend, fresh rule)
// so sequential and parallel campaigns start from identical state.
func buildExperiment(t *testing.T, ruleName string, parallel int, chaos bool) Experiment {
	t.Helper()
	m, err := machine.ByName("machine1")
	if err != nil {
		t.Fatal(err)
	}
	var b backend.Backend = backend.NewSim(m, 42)
	if chaos {
		b = backend.NewChaos(b, backend.ChaosConfig{
			Seed:        99,
			ErrorRate:   0.08,
			TimeoutRate: 0.04,
			LatencyRate: 0.1,
		})
	}
	rule, err := stopping.NewNamed(ruleName, 0, stopping.Bounds{MaxSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	return Experiment{
		Name:       "det-" + ruleName,
		Workload:   "hotspot",
		Backend:    b,
		Rule:       rule,
		Day:        1,
		Seed:       42,
		WarmupRuns: 2,
		Parallel:   parallel,
	}
}

func runToCSV(t *testing.T, e Experiment, path string) (*Result, error) {
	t.Helper()
	return runLogged(t, newFakeLauncher(), e, path, "")
}

// runLogged runs e on l, streaming its rows to a binary log at logPath
// (none when empty), and saves the result's CSV at csvPath.
func runLogged(t *testing.T, l *Launcher, e Experiment, csvPath, logPath string) (*Result, error) {
	t.Helper()
	var w *record.Writer
	if logPath != "" {
		var err error
		if w, err = record.CreateDurable(logPath, record.Options{FlushEvery: 1}); err != nil {
			t.Fatal(err)
		}
		l.Log = w
	}
	res, err := l.Run(context.Background(), e)
	if err != nil && !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("%s: %v", e.Name, err)
	}
	if res == nil {
		t.Fatalf("%s: nil result", e.Name)
	}
	if w != nil {
		if cerr := w.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}
	if werr := res.SaveCSV(csvPath); werr != nil {
		t.Fatal(werr)
	}
	return res, err
}

// sameFiles fails the test unless the files at a and b hold the same bytes.
func sameFiles(t *testing.T, label, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s: %s and %s differ (%d vs %d bytes)", label, filepath.Base(a), filepath.Base(b), len(x), len(y))
	}
}

func TestParallelRunMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	for _, chaos := range []bool{false, true} {
		for _, ruleName := range stopping.Names() {
			name := fmt.Sprintf("%s-%v", ruleName, chaos)
			seqCSV, seqLog := filepath.Join(dir, "seq-"+name+".csv"), filepath.Join(dir, "seq-"+name+".sharpb")
			seq, seqErr := runLogged(t, newFakeLauncher(), buildExperiment(t, ruleName, 0, chaos), seqCSV, seqLog)
			for _, workers := range []int{2, 3, 5, 8} {
				label := fmt.Sprintf("%s/chaos=%v/workers=%d", ruleName, chaos, workers)
				parCSV := filepath.Join(dir, fmt.Sprintf("par-%s-%d.csv", name, workers))
				parLog := filepath.Join(dir, fmt.Sprintf("par-%s-%d.sharpb", name, workers))
				par, parErr := runLogged(t, newFakeLauncher(), buildExperiment(t, ruleName, workers, chaos), parCSV, parLog)

				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s: error divergence: seq=%v par=%v", label, seqErr, parErr)
				}
				if seq.StopReason != par.StopReason {
					t.Fatalf("%s: StopReason diverged:\n seq: %s\n par: %s", label, seq.StopReason, par.StopReason)
				}
				if seq.Runs != par.Runs || seq.FailedRuns != par.FailedRuns || seq.Errors != par.Errors {
					t.Fatalf("%s: bookkeeping diverged: runs %d/%d failed %d/%d errors %d/%d",
						label, seq.Runs, par.Runs, seq.FailedRuns, par.FailedRuns, seq.Errors, par.Errors)
				}
				if !slices.Equal(seq.Samples, par.Samples) {
					t.Fatalf("%s: samples diverged (%d vs %d)", label, len(seq.Samples), len(par.Samples))
				}
				if !slices.Equal(seq.Rows, par.Rows) {
					t.Fatalf("%s: rows diverged (%d vs %d)", label, len(seq.Rows), len(par.Rows))
				}
				sameFiles(t, label+" CSV", seqCSV, parCSV)
				sameFiles(t, label+" log", seqLog, parLog)
			}
		}
	}
}

// TestParallelRunFailureBudget verifies the parallel path aborts on the
// failure budget with the same partial result and log as the sequential
// path, although the workers have runs past the abort in flight.
func TestParallelRunFailureBudget(t *testing.T) {
	build := func(parallel int) Experiment {
		e := buildExperiment(t, "ks", parallel, false)
		e.Backend = backend.NewChaos(e.Backend, backend.ChaosConfig{
			Seed:      7,
			ErrorRate: 0.9, // hammer the budget
		})
		e.Name = "budget"
		e.WarmupRuns = 0
		return e
	}
	dir := t.TempDir()
	seqCSV, seqLog := filepath.Join(dir, "seq.csv"), filepath.Join(dir, "seq.sharpb")
	seq, seqErr := runLogged(t, newFakeLauncher(), build(0), seqCSV, seqLog)
	if !errors.Is(seqErr, ErrFailureBudget) {
		t.Fatalf("expected a budget error, got %v", seqErr)
	}
	for _, workers := range []int{2, 3, 6, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		parCSV := filepath.Join(dir, fmt.Sprintf("par%d.csv", workers))
		parLog := filepath.Join(dir, fmt.Sprintf("par%d.sharpb", workers))
		par, parErr := runLogged(t, newFakeLauncher(), build(workers), parCSV, parLog)
		if !errors.Is(parErr, ErrFailureBudget) {
			t.Fatalf("%s: expected a budget error, got %v", label, parErr)
		}
		if seq.StopReason != par.StopReason || seq.Runs != par.Runs {
			t.Fatalf("%s: partial results diverged: %q/%d vs %q/%d", label, seq.StopReason, seq.Runs, par.StopReason, par.Runs)
		}
		sameFiles(t, label+" CSV", seqCSV, parCSV)
		sameFiles(t, label+" log", seqLog, parLog)
	}
}

// TestParallelRunConcurrencyInstances checks multi-instance runs keep
// per-instance rows ordered and identical.
func TestParallelRunConcurrencyInstances(t *testing.T) {
	build := func(parallel int) Experiment {
		e := buildExperiment(t, "ci", parallel, true)
		e.Concurrency = 3
		e.Name = "conc"
		return e
	}
	dir := t.TempDir()
	seq, _ := runToCSV(t, build(0), filepath.Join(dir, "seq.csv"))
	par, _ := runToCSV(t, build(4), filepath.Join(dir, "par.csv"))
	if seq.StopReason != par.StopReason {
		t.Fatalf("StopReason diverged: %q vs %q", seq.StopReason, par.StopReason)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "seq.csv"))
	b, _ := os.ReadFile(filepath.Join(dir, "par.csv"))
	if string(a) != string(b) {
		t.Fatal("CSV bytes diverged with Concurrency=3")
	}
}

// windowProbe wraps a backend and checks the window from the backend's side.
// merged is the number of runs the merge has folded into the rule (set from
// Launcher.OnProgress; every run succeeds in these tests, so it is also the
// rule's sample count). An invocation of run r must satisfy
//
//   - r <= the rule's next decision point after merged: the next multiple
//     of checkEvery, at most maxSamples;
//   - r <= merged + window.
//
// It also counts invocations and the invocations in flight, so a test can
// check that no worker is still running when a campaign returns.
type windowProbe struct {
	backend.Backend
	checkEvery, maxSamples, window int
	// onInvoke, when set, runs at the start of every measured run.
	onInvoke func(run int)
	// filled, when set, is closed by the window-th invocation.
	filled chan struct{}

	merged, invoked, active, maxRun atomic.Int64
	mu                              sync.Mutex
	violations                      []string
}

func (p *windowProbe) Unwrap() backend.Backend { return p.Backend }

func (p *windowProbe) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	if req.Run < 1 {
		return p.Backend.Invoke(ctx, req)
	}
	p.active.Add(1)
	defer p.active.Add(-1)
	if p.invoked.Add(1) == int64(p.window) && p.filled != nil {
		close(p.filled)
	}
	for r := int64(req.Run); ; {
		m := p.maxRun.Load()
		if r <= m || p.maxRun.CompareAndSwap(m, r) {
			break
		}
	}
	merged := int(p.merged.Load())
	if next := min((merged/p.checkEvery+1)*p.checkEvery, p.maxSamples); req.Run > next {
		p.violate("run %d invoked past the decision point %d (%d merged)", req.Run, next, merged)
	}
	if req.Run > merged+p.window {
		p.violate("run %d invoked %d runs ahead of the merge (window %d)", req.Run, req.Run-merged, p.window)
	}
	if p.onInvoke != nil {
		p.onInvoke(req.Run)
	}
	return p.Backend.Invoke(ctx, req)
}

func (p *windowProbe) violate(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

// check fails the test on any recorded violation or on an invocation still in
// flight: called right after a campaign returns, it proves the workers had
// stopped.
func (p *windowProbe) check(t *testing.T, label string) {
	t.Helper()
	if n := p.active.Load(); n != 0 {
		t.Errorf("%s: %d invocations still in flight after the campaign returned", label, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.violations {
		t.Errorf("%s: %s", label, v)
	}
}

// probed wraps e's backend in a windowProbe and wires l to feed it the merge
// position.
func probed(l *Launcher, e *Experiment, checkEvery, maxSamples int) *windowProbe {
	p := &windowProbe{
		Backend:    e.Backend,
		checkEvery: checkEvery,
		maxSamples: maxSamples,
		window:     max(windowRuns, 2*e.Parallel),
	}
	e.Backend = p
	l.OnProgress = func(pr stopping.Progress) { p.merged.Store(int64(pr.N)) }
	return p
}

// TestParallelWindowBounds drives an adaptive rule (decision points every 5
// samples, fewer than 8 workers) and a fixed rule (its cap is its only
// decision point) through the window and checks every invocation against
// the bounds. The fixed campaign holds its first merge until the workers
// have filled the window, so the window bound is reached, not just
// respected; and no run past the last decision point is ever invoked.
func TestParallelWindowBounds(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("ks/workers=%d", workers), func(t *testing.T) {
			l := newFakeLauncher()
			e := buildExperiment(t, "ks", workers, false)
			e.Rule = stopping.NewKS(0.1, stopping.Bounds{CheckEvery: 5, MaxSamples: 300})
			p := probed(l, &e, 5, 300)
			res, err := l.Run(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			p.check(t, "ks")
			if got := int(p.maxRun.Load()); got != res.Runs || res.Runs >= 300 {
				t.Errorf("highest run invoked %d, campaign ran %d (cap 300): want an adaptive stop and nothing past it", got, res.Runs)
			}
		})
		t.Run(fmt.Sprintf("fixed/workers=%d", workers), func(t *testing.T) {
			const n = 200
			l := newFakeLauncher()
			e := buildExperiment(t, "fixed", workers, false)
			e.Rule = stopping.NewFixed(n)
			p := probed(l, &e, n, n)
			p.filled = make(chan struct{})
			progress := l.OnProgress
			l.OnProgress = func(pr stopping.Progress) {
				if pr.N == 1 {
					// Merged run 1 is not yet published to the probe:
					// wait for the workers to fill the window ahead of it.
					select {
					case <-p.filled:
					case <-time.After(10 * time.Second):
					}
					if got := p.invoked.Load(); got != int64(p.window) {
						t.Errorf("%d runs invoked while the merge held run 1; want the window, %d", got, p.window)
					}
				}
				progress(pr)
			}
			res, err := l.Run(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			p.check(t, "fixed")
			if res.Runs != n || p.maxRun.Load() != n || p.invoked.Load() != n {
				t.Errorf("ran %d, highest run invoked %d, %d invocations; want exactly %d", res.Runs, p.maxRun.Load(), p.invoked.Load(), n)
			}
		})
	}
}

// TestParallelInterruptMidWindow cancels the campaign from inside a run while
// the window holds runs ahead of the merge: the result must end at a run
// boundary with exactly the uninterrupted prefix, no worker may outlive the
// return, and resuming must reproduce the uninterrupted campaign.
func TestParallelInterruptMidWindow(t *testing.T) {
	const n, cancelAt = 200, 57
	build := func(workers int) Experiment {
		e := buildExperiment(t, "fixed", workers, false)
		e.Rule = stopping.NewFixed(n)
		return e
	}
	dir := t.TempDir()
	fullCSV := filepath.Join(dir, "full.csv")
	full, err := runToCSV(t, build(0), fullCSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		ctx, cancel := context.WithCancel(context.Background())
		l := newFakeLauncher()
		e := build(workers)
		p := probed(l, &e, n, n)
		p.onInvoke = func(run int) {
			if run == cancelAt {
				cancel()
			}
		}
		partial, err := l.Run(ctx, e)
		cancel()
		p.check(t, label)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: want ErrInterrupted, got %v", label, err)
		}
		// Run cancelAt fails on the cancelled context, so nothing past the
		// run before it can have been merged.
		if partial.Runs >= cancelAt || !strings.Contains(partial.StopReason, fmt.Sprintf("interrupted after run %d", partial.Runs)) {
			t.Fatalf("%s: interrupted at run %d (%q); want before run %d", label, partial.Runs, partial.StopReason, cancelAt)
		}
		if !slices.Equal(partial.Rows, rowPrefix(full.Rows, partial.Runs)) {
			t.Fatalf("%s: partial rows are not the uninterrupted prefix of %d runs", label, partial.Runs)
		}
		res, err := newFakeLauncherAt(partial.Runs).Resume(context.Background(), build(workers), partial.Rows)
		if err != nil {
			t.Fatal(err)
		}
		resCSV := filepath.Join(dir, label+".csv")
		if err := res.SaveCSV(resCSV); err != nil {
			t.Fatal(err)
		}
		sameFiles(t, label+" resumed CSV", fullCSV, resCSV)
	}
}

// TestParallelPanicReraisedInOrder injects backend panics: the parallel path
// must re-raise the first one at its run's merge position, so the rows the
// sink received before it are the sequential path's, and only after every
// worker has stopped.
func TestParallelPanicReraisedInOrder(t *testing.T) {
	run := func(workers int) (rows []record.Row, panicked any, p *windowProbe) {
		l := newFakeLauncher()
		sink := &failingSink{n: 1 << 20}
		l.Log = sink
		e := buildExperiment(t, "fixed", workers, false)
		e.Rule = stopping.NewFixed(300)
		e.Backend = backend.NewChaos(e.Backend, backend.ChaosConfig{Seed: 5, PanicRate: 0.02, ErrorRate: 0.05})
		p = probed(l, &e, 300, 300)
		func() {
			defer func() { panicked = recover() }()
			_, err := l.Run(context.Background(), e)
			t.Errorf("workers=%d: campaign returned %v; want a panic", workers, err)
		}()
		return sink.rows, panicked, p
	}
	seqRows, seqPanic, _ := run(0)
	if seqPanic == nil || len(seqRows) == 0 {
		t.Fatalf("sequential reference: panic %v after %d rows; want a panic after some rows", seqPanic, len(seqRows))
	}
	for _, workers := range []int{2, 3, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		rows, panicked, p := run(workers)
		p.check(t, label)
		if panicked != seqPanic {
			t.Errorf("%s: panic %v, want %v", label, panicked, seqPanic)
		}
		if !slices.Equal(rows, seqRows) {
			t.Errorf("%s: sink got %d rows before the panic, sequential %d", label, len(rows), len(seqRows))
		}
	}
}

// TestFixedCampaignReservesRowsOnce pins the row reservation: a failure-free
// fixed campaign allocates its log once, exactly, at any parallelism, and a
// resumed one appends its runs after the replayed rows, sized by the last
// replayed run.
func TestFixedCampaignReservesRowsOnce(t *testing.T) {
	full, err := newFakeLauncher().Run(context.Background(), buildExperiment(t, "fixed", 0, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		res, err := newFakeLauncher().Run(context.Background(), buildExperiment(t, "fixed", workers, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedRuns != 0 || cap(res.Rows) != len(res.Rows) {
			t.Errorf("workers=%d: %d failed runs, %d rows in a capacity of %d; want a failure-free log reserved exactly",
				workers, res.FailedRuns, len(res.Rows), cap(res.Rows))
		}
		cut := full.Runs / 3
		resumed, err := newFakeLauncherAt(cut).Resume(context.Background(), buildExperiment(t, "fixed", workers, false), rowPrefix(full.Rows, cut))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resumed.Rows, full.Rows) || cap(resumed.Rows) != len(resumed.Rows) {
			t.Errorf("workers=%d: resumed log of %d rows in a capacity of %d; want the uninterrupted %d rows, reserved exactly",
				workers, len(resumed.Rows), cap(resumed.Rows), len(full.Rows))
		}
	}
}

// BenchmarkParallelCampaign times the campaign shape of the end-to-end
// benchmark — a fixed-6000 Sim campaign at concurrency 4, streamed to a
// binary log with FlushEvery 1 — at Parallel 1 and at NumCPU, and fails if
// the two logs differ. One sample per width per iteration: the figures are
// informative, not a gate.
func BenchmarkParallelCampaign(b *testing.B) {
	m, err := machine.ByName("machine1")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	frozen := time.Date(2025, 1, 2, 0, 0, 0, 0, time.UTC)
	campaign := func(parallel int) ([]byte, float64) {
		path := filepath.Join(dir, fmt.Sprintf("p%d.sharpb", parallel))
		w, err := record.CreateDurable(path, record.Options{FlushEvery: 1})
		if err != nil {
			b.Fatal(err)
		}
		l := &Launcher{Clock: func() time.Time { return frozen }, Log: w}
		start := time.Now()
		res, err := l.Run(context.Background(), Experiment{
			Name:        "hotspot@machine1",
			Workload:    "hotspot",
			Backend:     backend.NewSim(m, 11),
			Rule:        stopping.NewFixed(6000),
			Concurrency: 4,
			Seed:        11,
			Parallel:    parallel,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		return data, float64(res.Runs) / wall
	}
	var seqRate, parRate float64
	for i := 0; i < b.N; i++ {
		seq, sr := campaign(1)
		par, pr := campaign(runtime.NumCPU())
		if !bytes.Equal(seq, par) {
			b.Fatalf("Parallel 1 and %d logs differ (%d vs %d bytes)", runtime.NumCPU(), len(seq), len(par))
		}
		seqRate += sr
		parRate += pr
	}
	b.ReportMetric(seqRate/float64(b.N), "seq_runs/s")
	b.ReportMetric(parRate/float64(b.N), "par_runs/s")
}
