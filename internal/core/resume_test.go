package core

// Differential tests for campaign resume: a campaign interrupted at an
// arbitrary run boundary and resumed with the same configuration must
// reproduce the uninterrupted campaign exactly — samples, rows, stop
// decision, and the bytes of the saved CSV — for every stopping rule, in
// sequential and parallel mode, with and without chaos fault injection.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sharp/internal/backend"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

// newFakeLauncherAt returns a launcher whose deterministic clock has already
// ticked `skip` times. Resuming after k completed runs with skip = k puts
// the continuation's timestamps exactly where the uninterrupted campaign's
// would be (its clock had ticked once for Started plus once per run, and
// Resume's own Started tick replays the original Started tick), so CSV
// comparison is byte-exact.
func newFakeLauncherAt(skip int) *Launcher {
	l := newFakeLauncher()
	for i := 0; i < skip; i++ {
		l.Clock()
	}
	return l
}

// rowPrefix returns the rows of runs 1..k.
func rowPrefix(rows []record.Row, k int) []record.Row {
	var out []record.Row
	for _, r := range rows {
		if r.Run <= k {
			out = append(out, r)
		}
	}
	return out
}

func readFileT(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestResumeMatchesUninterrupted(t *testing.T) {
	rules := []string{"fixed", "ks", "ci", "mean", "meta"}
	dir := t.TempDir()
	for _, ruleName := range rules {
		for _, parallel := range []int{1, 4} {
			for _, chaos := range []bool{false, true} {
				name := fmt.Sprintf("%s-p%d-chaos%v", ruleName, parallel, chaos)
				t.Run(name, func(t *testing.T) {
					// Uninterrupted reference campaign.
					fullPath := filepath.Join(dir, name+"-full.csv")
					full, _ := runToCSV(t, buildExperiment(t, ruleName, parallel, chaos), fullPath)
					if full.Runs < 4 {
						t.Fatalf("campaign too short to cut: %d runs", full.Runs)
					}
					// Cut at several points, including run 1 and the
					// penultimate run.
					for _, cut := range []int{1, full.Runs / 2, full.Runs - 1} {
						e := buildExperiment(t, ruleName, parallel, chaos)
						l := newFakeLauncherAt(cut) // one tick per replayed run
						res, err := l.Resume(context.Background(), e, rowPrefix(full.Rows, cut))
						if err != nil && !errors.Is(err, ErrFailureBudget) {
							t.Fatalf("cut %d: %v", cut, err)
						}
						if res.Runs != full.Runs {
							t.Fatalf("cut %d: runs %d != %d", cut, res.Runs, full.Runs)
						}
						if res.StopReason != full.StopReason {
							t.Errorf("cut %d: stop %q != %q", cut, res.StopReason, full.StopReason)
						}
						if len(res.Samples) != len(full.Samples) {
							t.Fatalf("cut %d: %d samples != %d", cut, len(res.Samples), len(full.Samples))
						}
						for i := range res.Samples {
							if res.Samples[i] != full.Samples[i] {
								t.Fatalf("cut %d: sample %d: %v != %v", cut, i, res.Samples[i], full.Samples[i])
							}
						}
						resPath := filepath.Join(dir, fmt.Sprintf("%s-cut%d.csv", name, cut))
						if err := res.SaveCSV(resPath); err != nil {
							t.Fatal(err)
						}
						if got, want := readFileT(t, resPath), readFileT(t, fullPath); got != want {
							t.Errorf("cut %d: resumed CSV differs from uninterrupted", cut)
						}
					}
				})
			}
		}
	}
}

// cancelAfter cancels a context once n measured-run invocations have been
// requested, simulating an operator interrupt mid-campaign. Invocations may
// arrive from parallel workers, so the count is atomic.
type cancelAfter struct {
	backend.Backend
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancelAfter) Unwrap() backend.Backend { return c.Backend }

func (c *cancelAfter) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	if req.Run >= 1 && c.seen.Add(1) == c.after {
		c.cancel()
	}
	return c.Backend.Invoke(ctx, req)
}

func TestInterruptThenResumeEqualsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	// Reference: uninterrupted, sequential.
	fullPath := filepath.Join(dir, "full.csv")
	full, _ := runToCSV(t, buildExperiment(t, "ks", 1, false), fullPath)

	for _, tc := range []struct {
		parallel int
		after    int64 // cancel during this measured-run invocation
		// The checkpoint lies in [lo, hi].
		lo, hi int
	}{
		// Sequential: interrupt during run 7's invocation. The cancelled
		// run produces nothing, so the checkpoint is run 6.
		{parallel: 1, after: 7, lo: 6, hi: 6},
		// Parallel: KS decides every 10 samples, so runs 11-20 are
		// handed out only after run 10 merged, and the 17th invocation
		// falls among them. The merge keeps pace with the workers, so it
		// stops after run 10 or after any of the 6 runs whose invocations
		// came before the cancelled one; the cancelled run itself
		// produces nothing.
		{parallel: 4, after: 17, lo: 10, hi: 16},
	} {
		t.Run(fmt.Sprintf("p%d", tc.parallel), func(t *testing.T) {
			e := buildExperiment(t, "ks", tc.parallel, false)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e.Backend = &cancelAfter{Backend: e.Backend, cancel: cancel, after: tc.after}
			l := newFakeLauncher()
			partial, err := l.Run(ctx, e)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if partial == nil || partial.Runs < tc.lo || partial.Runs > tc.hi {
				t.Fatalf("partial result: runs=%d err=%v, want a checkpoint in [%d, %d]", partial.Runs, err, tc.lo, tc.hi)
			}
			checkpoint := partial.Runs
			if want := fmt.Sprintf("interrupted after run %d", checkpoint); !strings.Contains(partial.StopReason, want) {
				t.Errorf("stop reason %q", partial.StopReason)
			}
			// The partial rows must be exactly the uninterrupted prefix,
			// ending at the checkpoint run.
			want := rowPrefix(full.Rows, checkpoint)
			if len(partial.Rows) != len(want) {
				t.Fatalf("partial rows %d != prefix %d", len(partial.Rows), len(want))
			}
			if last := partial.Rows[len(partial.Rows)-1].Run; last != checkpoint {
				t.Fatalf("last recorded run %d, want checkpoint %d", last, checkpoint)
			}

			// Resume from the partial log.
			e2 := buildExperiment(t, "ks", tc.parallel, false)
			l2 := newFakeLauncherAt(partial.Runs)
			res, err := l2.Resume(context.Background(), e2, partial.Rows)
			if err != nil {
				t.Fatal(err)
			}
			resPath := filepath.Join(dir, fmt.Sprintf("resumed-p%d.csv", tc.parallel))
			if err := res.SaveCSV(resPath); err != nil {
				t.Fatal(err)
			}
			if got, wantCSV := readFileT(t, resPath), readFileT(t, fullPath); got != wantCSV {
				t.Error("resumed CSV differs from uninterrupted")
			}
			if res.StopReason != full.StopReason || res.Runs != full.Runs {
				t.Errorf("resume outcome %d %q != %d %q", res.Runs, res.StopReason, full.Runs, full.StopReason)
			}
		})
	}
}

func TestResumeValidatesRows(t *testing.T) {
	e := buildExperiment(t, "fixed", 1, false)
	l := newFakeLauncher()
	full, err := l.Run(context.Background(), buildExperiment(t, "fixed", 1, false))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong experiment", func(t *testing.T) {
		rows := append([]record.Row(nil), full.Rows...)
		rows[0].Experiment = "someone-else"
		if _, err := newFakeLauncher().Resume(context.Background(), e, rows); err == nil {
			t.Error("foreign rows accepted")
		}
	})
	t.Run("non-contiguous runs", func(t *testing.T) {
		rows := rowPrefix(full.Rows, 3)
		rows[len(rows)-1].Run = 9
		if _, err := newFakeLauncher().Resume(context.Background(), e, rows); err == nil {
			t.Error("gap in run sequence accepted")
		}
	})
	t.Run("empty log resumes from scratch", func(t *testing.T) {
		e2 := buildExperiment(t, "fixed", 1, false)
		res, err := newFakeLauncher().Resume(context.Background(), e2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs != full.Runs {
			t.Errorf("runs %d != %d", res.Runs, full.Runs)
		}
	})
}

// failingSink fails after accepting n rows.
type failingSink struct {
	n    int
	rows []record.Row
}

func (s *failingSink) Write(r record.Row) error {
	if len(s.rows) >= s.n {
		return errors.New("disk full")
	}
	s.rows = append(s.rows, r)
	return nil
}

// failingBatchSink is a failingSink that also takes whole runs through
// WriteAll, refusing the first run that would take it past n rows.
type failingBatchSink struct {
	failingSink
	calls int
}

func (s *failingBatchSink) WriteAll(rows []record.Row) error {
	if len(s.rows)+len(rows) > s.n {
		return errors.New("disk full")
	}
	s.calls++
	s.rows = append(s.rows, rows...)
	return nil
}

func TestRowSinkStreamsAndAborts(t *testing.T) {
	t.Run("sink receives every row", func(t *testing.T) {
		sink := &failingSink{n: 1 << 20}
		l := newFakeLauncher()
		l.Log = sink
		res, err := l.Run(context.Background(), buildExperiment(t, "fixed", 1, true))
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.rows) != len(res.Rows) {
			t.Fatalf("sink saw %d rows, result has %d", len(sink.rows), len(res.Rows))
		}
		for i := range sink.rows {
			if sink.rows[i] != res.Rows[i] {
				t.Fatalf("row %d diverges", i)
			}
		}
	})
	t.Run("sink failure aborts the campaign", func(t *testing.T) {
		l := newFakeLauncher()
		l.Log = &failingSink{n: 5}
		_, err := l.Run(context.Background(), buildExperiment(t, "fixed", 1, false))
		if err == nil || !strings.Contains(err.Error(), "row sink") {
			t.Fatalf("want row-sink error, got %v", err)
		}
	})
	t.Run("a batching sink gets one call per run and its failure aborts", func(t *testing.T) {
		full, err := newFakeLauncher().Run(context.Background(), buildExperiment(t, "fixed", 1, true))
		if err != nil {
			t.Fatal(err)
		}
		sink := &failingBatchSink{failingSink: failingSink{n: 1 << 20}}
		l := newFakeLauncher()
		l.Log = sink
		res, err := l.Run(context.Background(), buildExperiment(t, "fixed", 1, true))
		if err != nil {
			t.Fatal(err)
		}
		if sink.calls != res.Runs || len(sink.rows) != len(full.Rows) {
			t.Fatalf("sink got %d calls and %d rows; want %d runs and %d rows", sink.calls, len(sink.rows), res.Runs, len(full.Rows))
		}
		for i := range sink.rows {
			if sink.rows[i] != full.Rows[i] {
				t.Fatalf("row %d diverges", i)
			}
		}

		sink = &failingBatchSink{failingSink: failingSink{n: 5}}
		l = newFakeLauncher()
		l.Log = sink
		s, err := l.NewStepper(context.Background(), buildExperiment(t, "fixed", 1, false))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(context.Background(), 1000); err == nil || !strings.Contains(err.Error(), "row sink") {
			t.Fatalf("want row-sink error, got %v", err)
		}
		// The refused run adds no sample: only runs the sink took count.
		if got := len(s.Finish("").Samples); got != sink.calls {
			t.Errorf("%d samples after the sink took %d runs", got, sink.calls)
		}
	})
	t.Run("resume does not replay rows into the sink", func(t *testing.T) {
		full, err := newFakeLauncher().Run(context.Background(), buildExperiment(t, "fixed", 1, false))
		if err != nil {
			t.Fatal(err)
		}
		cut := full.Runs / 2
		sink := &failingSink{n: 1 << 20}
		l := newFakeLauncherAt(cut)
		l.Log = sink
		res, err := l.Resume(context.Background(), buildExperiment(t, "fixed", 1, false), rowPrefix(full.Rows, cut))
		if err != nil {
			t.Fatal(err)
		}
		if want := len(res.Rows) - len(rowPrefix(full.Rows, cut)); len(sink.rows) != want {
			t.Errorf("sink saw %d rows, want only the %d new ones", len(sink.rows), want)
		}
	})
}

// TestResumeAtStopBoundary resumes a log that already satisfies the rule.
func TestResumeAtStopBoundary(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		full, err := newFakeLauncher().Run(context.Background(), buildExperiment(t, "fixed", parallel, false))
		if err != nil {
			t.Fatal(err)
		}
		res, err := newFakeLauncherAt(full.Runs).Resume(
			context.Background(), buildExperiment(t, "fixed", parallel, false), full.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs != full.Runs || res.StopReason != full.StopReason {
			t.Errorf("parallel=%d: boundary resume: %d %q != %d %q",
				parallel, res.Runs, res.StopReason, full.Runs, full.StopReason)
		}
		if len(res.Samples) != len(full.Samples) {
			t.Errorf("parallel=%d: samples %d != %d", parallel, len(res.Samples), len(full.Samples))
		}
		if res.Finished != full.Finished {
			t.Errorf("parallel=%d: finished %v != %v", parallel, res.Finished, full.Finished)
		}
	}
}

// withRule is buildExperiment's hotspot campaign (machine1, seed 42, no
// chaos) under rule.
func withRule(t *testing.T, rule stopping.Rule) Experiment {
	e := buildExperiment(t, "fixed", 1, false)
	e.Rule = rule
	return e
}

// TestReplayRejectsRowsPastStop: a log that goes on past the run where the
// rule stopped is no log of a campaign under that rule, so ReplayLog and
// Resume refuse it rather than report the rule's stop over the longer log.
// The same log cut at the stop replays.
func TestReplayRejectsRowsPastStop(t *testing.T) {
	ksRule := func() stopping.Rule { return stopping.NewKS(0.1, stopping.Bounds{MaxSamples: 1000}) }
	ks, err := newFakeLauncher().Run(context.Background(), withRule(t, ksRule()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ks.StopReason, "KS") {
		t.Fatalf("KS campaign stopped at run %d on %q, not on its KS check", ks.Runs, ks.StopReason)
	}
	for _, c := range []struct {
		name    string
		logRuns int
		rule    func() stopping.Rule
		stop    int
	}{
		{"fixed", 30, func() stopping.Rule { return stopping.NewFixed(20) }, 20},
		{"ks", ks.Runs + 40, ksRule, ks.Runs},
	} {
		t.Run(c.name, func(t *testing.T) {
			long, err := newFakeLauncher().Run(context.Background(), withRule(t, stopping.NewFixed(c.logRuns)))
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("stopped after run %d", c.stop)
			if _, err := newFakeLauncher().ReplayLog(withRule(t, c.rule()), long.Rows); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ReplayLog of a %d-run log under a rule that stops at %d: err %v", c.logRuns, c.stop, err)
			}
			if _, err := newFakeLauncher().Resume(context.Background(), withRule(t, c.rule()), long.Rows); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Resume of a %d-run log under a rule that stops at %d: err %v", c.logRuns, c.stop, err)
			}
			res, err := newFakeLauncher().ReplayLog(withRule(t, c.rule()), rowPrefix(long.Rows, c.stop))
			if err != nil || res.Runs != c.stop {
				t.Fatalf("ReplayLog of the log cut at the stop: err %v", err)
			}
		})
	}
}

// failFirst fails every measured run up to run n as a whole.
type failFirst struct {
	backend.Backend
	n int
}

func (f failFirst) Unwrap() backend.Backend { return f.Backend }

func (f failFirst) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	if req.Run >= 1 && req.Run <= f.n {
		return nil, errors.New("injected failure")
	}
	return f.Backend.Invoke(ctx, req)
}

// TestReplayRejectsRowsPastFailureBudget: a log whose first five runs fail
// goes on past run 3, where a budget of three consecutive failures ran
// out; replay refuses it, and the log cut there reproduces the abort.
func TestReplayRejectsRowsPastFailureBudget(t *testing.T) {
	failing := func(budget FailureBudget) Experiment {
		e := withRule(t, stopping.NewFixed(12))
		e.Backend = failFirst{e.Backend, 5}
		e.FailureBudget = budget
		return e
	}
	long, err := newFakeLauncher().Run(context.Background(), failing(FailureBudget{MaxConsecutive: -1, MaxFraction: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if long.Runs != 17 || long.FailedRuns != 5 {
		t.Fatalf("unbudgeted campaign: %d runs, %d failed; want 17 and 5", long.Runs, long.FailedRuns)
	}
	budget := FailureBudget{MaxConsecutive: 3, MaxFraction: -1}
	if _, err := newFakeLauncher().ReplayLog(failing(budget), long.Rows); err == nil || !strings.Contains(err.Error(), "stopped after run 3") {
		t.Fatalf("ReplayLog past the failure budget: %v", err)
	}
	res, err := newFakeLauncher().ReplayLog(failing(budget), rowPrefix(long.Rows, 3))
	if !errors.Is(err, ErrFailureBudget) || res.Runs != 3 {
		t.Fatalf("ReplayLog of the log cut at the budget: err %v", err)
	}
}

// TestResumeKeepsBudgetParity: runs 1-6 fail and the rest succeed, so
// after run 10 six of ten runs failed, over the default 50% budget, but the
// budget is asked only after a failed run and the campaign goes on. A
// resume from the checkpoint at run 10 must go on as well.
func TestResumeKeepsBudgetParity(t *testing.T) {
	mk := func() Experiment {
		e := withRule(t, stopping.NewFixed(12))
		e.Backend = failFirst{e.Backend, 6}
		return e
	}
	full, err := newFakeLauncher().Run(context.Background(), mk())
	if err != nil || full.Runs != 18 {
		t.Fatalf("uninterrupted campaign: %v", err)
	}
	res, err := newFakeLauncherAt(10).Resume(context.Background(), mk(), rowPrefix(full.Rows, 10))
	if err != nil {
		t.Fatalf("resume at run 10: %v", err)
	}
	if res.Runs != full.Runs || res.StopReason != full.StopReason || len(res.Rows) != len(full.Rows) {
		t.Fatalf("resumed (%d runs, %q, %d rows) != uninterrupted (%d, %q, %d)",
			res.Runs, res.StopReason, len(res.Rows), full.Runs, full.StopReason, len(full.Rows))
	}
}

// TestReplayAdoptsRows: the replayed Result adopts the caller's rows
// without copying them, and appending to its Rows, by hand or by the runs a
// resumed campaign measures, never writes into the caller's array.
func TestReplayAdoptsRows(t *testing.T) {
	full, err := newFakeLauncher().Run(context.Background(), buildExperiment(t, "fixed", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	spare := func(rows []record.Row) []record.Row {
		out := make([]record.Row, len(rows), 2*len(rows))
		copy(out, rows)
		return out
	}
	untouched := func(what string, rows []record.Row) {
		t.Helper()
		for i, r := range rows[len(rows):cap(rows)] {
			if r != (record.Row{}) {
				t.Fatalf("%s wrote the caller's spare capacity at %d: %+v", what, len(rows)+i, r)
			}
		}
	}

	rows := spare(full.Rows)
	res, err := newFakeLauncher().ReplayLog(buildExperiment(t, "fixed", 1, false), rows)
	if err != nil {
		t.Fatal(err)
	}
	if &res.Rows[0] != &rows[0] {
		t.Error("ReplayLog copied the rows instead of adopting them")
	}
	res.Rows = append(res.Rows, record.Row{Experiment: "appended"})
	untouched("append to a replayed Result", rows)

	cut := full.Runs / 2
	rows = spare(rowPrefix(full.Rows, cut))
	resumed, err := newFakeLauncherAt(cut).Resume(context.Background(), buildExperiment(t, "fixed", 1, false), rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Rows) != len(full.Rows) {
		t.Fatalf("resumed %d rows, want %d", len(resumed.Rows), len(full.Rows))
	}
	untouched("Resume", rows)
}
