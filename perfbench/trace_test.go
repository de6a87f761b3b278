package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/service"
	"sharp/internal/stopping"
)

// campaignLog runs a Parallel 2 KS campaign on a Sim backend, optionally
// through the traced decorators, and returns its binary log bytes.
func campaignLog(t *testing.T, traced bool) []byte {
	t.Helper()
	m, err := machine.ByName("machine2")
	if err != nil {
		t.Fatal(err)
	}
	var b backend.Backend = backend.NewSim(m, 7)
	// An adaptive rule with a non-default CheckEvery, so the parallel
	// engine's batches follow the forwarded Bounds.
	var rule stopping.Rule = stopping.NewKS(0.05, stopping.Bounds{CheckEvery: 7, MaxSamples: 1500})
	path := filepath.Join(t.TempDir(), "log.sharpb")
	w, err := record.CreateDurable(path, record.Options{FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sink core.RowSink = w
	closeLog := w.Close
	if traced {
		sp := newSpans()
		b = &tracedBackend{Backend: b, sp: sp}
		if rule, err = newTracedRule(rule, sp); err != nil {
			t.Fatal(err)
		}
		ts := &tracedSink{w: w, sp: sp}
		sink, closeLog = ts, ts.Close
	}
	l := &core.Launcher{Clock: frozenClock, Log: sink}
	res, err := l.Run(context.Background(), core.Experiment{
		Name: "hotspot@machine2", Workload: "hotspot", Backend: b, Rule: rule,
		Concurrency: 3, Seed: 7, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := closeLog(); err != nil {
		t.Fatal(err)
	}
	if res.Runs < 20 || res.Runs >= 1500 {
		t.Fatalf("campaign ran %d runs; want an adaptive stop below the cap", res.Runs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTracedParallelCampaignLogIsByteIdentical(t *testing.T) {
	plain, traced := campaignLog(t, false), campaignLog(t, true)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("traced parallel campaign log differs from the untraced one (%d vs %d bytes)", len(traced), len(plain))
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	m, err := machine.ByName("machine1")
	if err != nil {
		t.Fatal(err)
	}
	sim := backend.NewSim(m, 1)
	var b backend.Backend = &tracedBackend{Backend: sim, sp: newSpans()}
	if backend.Unwrap(b) != sim {
		t.Fatal("Unwrap does not reach the Sim")
	}
	if !backend.SetRunOrdered(b, true) {
		t.Fatal("SetRunOrdered does not reach the Sim")
	}
	if ok, err := backend.SkipRuns(b, "srad", 1, 1, 3); !ok || err != nil {
		t.Fatalf("SkipRuns = %v, %v; want it to reach the Sim", ok, err)
	}

	inner := stopping.NewCI(0.95, 0.01, stopping.Bounds{CheckEvery: 5, MaxSamples: 321})
	r, err := newTracedRule(inner, newSpans())
	if err != nil {
		t.Fatal(err)
	}
	if r.Bounds() != inner.Bounds() {
		t.Fatalf("Bounds = %+v, want %+v", r.Bounds(), inner.Bounds())
	}
	for i := 0; i < 10; i++ {
		r.Add(1 + float64(i%3)*0.1)
	}
	got, gotOK := r.LastEval()
	want, wantOK := inner.LastEval()
	if got != want || gotOK != wantOK || !gotOK {
		t.Fatalf("LastEval = %+v %v, want %+v %v", got, gotOK, want, wantOK)
	}
	if stopping.Snapshot(r) != stopping.Snapshot(inner) {
		t.Fatalf("Progress = %+v, want %+v", stopping.Snapshot(r), stopping.Snapshot(inner))
	}
}

// TestSameRows proves the sweep's warm-versus-cold check notices a change
// in any field, the value down to its last bit.
func TestSameRows(t *testing.T) {
	row := record.Row{Timestamp: frozen, Experiment: "e", Workload: "w", Run: 1, Metric: "exec_time", Value: 0.1}
	a := []record.Row{row, row}
	if !sameRows(a, append([]record.Row(nil), a...)) {
		t.Fatal("identical rows reported different")
	}
	for name, edit := range map[string]func(*record.Row){
		"value":     func(r *record.Row) { r.Value = math.Nextafter(r.Value, 1) },
		"timestamp": func(r *record.Row) { r.Timestamp = r.Timestamp.Add(time.Nanosecond) },
		"run":       func(r *record.Row) { r.Run++ },
		"metric":    func(r *record.Row) { r.Metric = "other" },
	} {
		b := append([]record.Row(nil), a...)
		edit(&b[1])
		if sameRows(a, b) {
			t.Errorf("rows differing in %s reported equal", name)
		}
	}
	if sameRows(a, a[:1]) {
		t.Error("rows of different length reported equal")
	}
}

// TestClosedLoopTimesOut proves a batch the coordinator never finishes (here:
// no worker serves it) ends at its deadline with every open campaign
// counted as failed, instead of hanging the run.
func TestClosedLoopTimesOut(t *testing.T) {
	c, err := newCoordinator(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	url, srv, served, err := serve(c)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	defer func() {
		shutdown(srv, served)
		c.Close()
	}()
	spec := service.CampaignSpec{Tenant: "acme", Name: "stuck", Workload: "srad", Machine: "machine1",
		Rule: "fixed", Threshold: 10, Seed: 1, Day: 1, Concurrency: 1}
	tl := &tally{}
	p := &servicePhase{st: &setup{specs: []service.CampaignSpec{spec, spec}}, t: tl,
		submitted: map[string]time.Time{}, firstLease: map[string]bool{}}
	done := make(chan batchResult)
	go func() {
		res, err := p.closedLoop(context.Background(), service.NewHTTPClient(url), []int{0, 1}, 200*time.Millisecond)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if tl.failed != 2 {
			t.Errorf("failed = %d, want 2 (%v)", tl.failed, tl.reasons)
		}
		for k, id := range res.ids {
			if id != "" {
				t.Errorf("campaign %d kept ID %q; its result would be checked", k, id)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closed loop did not end at its deadline")
	}
}
