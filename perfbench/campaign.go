package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

// campaignRun is one measured campaign.
type campaignRun struct {
	wall  float64 // seconds, Launcher.Run start to log Close
	steal float64 // the steal factor of that stretch
	runs  int
	bytes int64
	rows  int // rows re-read from the log
	want  int // rows in the Result
	log   []byte
}

// campaignPhase runs one generated campaign per unit, with Parallel 1 and
// again with Parallel nproc, each streaming to its own binary log.
type campaignPhase struct {
	cfg config
	st  *setup
	t   *tally
	// seq and par hold the traced spans of each width (nil untraced).
	seq, par         *spans
	units            int
	seqWall, parWall float64
	seqRuns, parRuns float64
	seqRate, parRate series  // runs per second, one per unit
	bytesPerRow      float64 // of the first unit's log
}

func openCampaign(_ context.Context, cfg config, st *setup, sp *spans, t *tally) (phase, error) {
	p := &campaignPhase{cfg: cfg, st: st, t: t}
	if sp != nil {
		p.seq, p.par = newSpans(), newSpans()
	}
	return p, nil
}

func (p *campaignPhase) unit(ctx context.Context, i int) error {
	in := p.st.campaigns[i%len(p.st.campaigns)]
	seq, err := oneCampaign(ctx, p.st, in, 1, p.seq)
	if err != nil {
		return err
	}
	par, err := oneCampaign(ctx, p.st, in, p.cfg.nproc, p.par)
	if err != nil {
		return err
	}
	p.units++
	p.seqWall += seq.wall
	p.parWall += par.wall
	p.seqRuns += float64(seq.runs)
	p.parRuns += float64(par.runs)
	p.seqRate.add(float64(seq.runs)/seq.wall, seq.steal)
	p.parRate.add(float64(par.runs)/par.wall, par.steal)
	if i == 0 {
		// One fixed input, so the count repeats exactly at a fixed seed
		// whatever the number of units the run fits in.
		p.bytesPerRow = float64(seq.bytes) / float64(seq.rows)
	}
	t := p.t
	t.check(seq.runs == campaignRuns && par.runs == campaignRuns,
		"campaign %d: %d/%d runs merged, want %d", i, seq.runs, par.runs, campaignRuns)
	t.check(seq.rows == seq.want && par.rows == par.want,
		"campaign %d: logs hold %d/%d rows, results %d/%d", i, seq.rows, par.rows, seq.want, par.want)
	t.check(bytes.Equal(seq.log, par.log), "campaign %d: Parallel 1 and %d logs differ", i, p.cfg.nproc)
	t.check(p.st.digest(fmt.Sprintf("campaign/%d", i%len(p.st.campaigns)), seq.log),
		"campaign %d: log differs from an earlier run of the same input", i)
	return nil
}

func (p *campaignPhase) finish(e2e, layer *sheet, hs hostScale) float64 {
	p.cfg.logf("campaign: %d campaign pairs, %.2f s of campaigns", p.units, p.seqWall+p.parWall)
	hs.rate(e2e, "campaign_seq_runs_per_s", "runs/s", p.seqRate)
	hs.rate(e2e, "campaign_par_runs_per_s", "runs/s", p.parRate)
	if p.seq != nil {
		p.layers(layer)
	}
	return (p.seqWall + p.parWall) / (p.seqRuns + p.parRuns)
}

func (p *campaignPhase) close() {}

// oneCampaign runs in with the given Parallel width, logging to a fresh
// binary file, and checks the re-read log against the result.
func oneCampaign(ctx context.Context, st *setup, in campaignInput, parallel int, sp *spans) (campaignRun, error) {
	m, err := machine.ByName(in.machine)
	if err != nil {
		return campaignRun{}, err
	}
	var b backend.Backend = backend.NewSim(m, in.seed)
	var rule stopping.Rule = stopping.NewFixed(campaignRuns)
	path := filepath.Join(st.dir, fmt.Sprintf("campaign-p%d.sharpb", parallel))
	w, err := record.CreateDurable(path, record.Options{FlushEvery: 1})
	if err != nil {
		return campaignRun{}, err
	}
	var sink core.RowSink = w
	closeLog := w.Close
	if sp != nil {
		b = &tracedBackend{Backend: b, sp: sp}
		if rule, err = newTracedRule(rule, sp); err != nil {
			w.Close()
			return campaignRun{}, err
		}
		ts := &tracedSink{w: w, sp: sp}
		sink, closeLog = ts, ts.Close
	}
	l := &core.Launcher{Clock: frozenClock, Log: sink}
	e := core.Experiment{
		Name:        in.bench + "@" + in.machine,
		Workload:    in.bench,
		Backend:     b,
		Rule:        rule,
		Concurrency: campaignConcurrency,
		Seed:        in.seed,
		Parallel:    parallel,
	}
	c := startClock()
	res, err := l.Run(ctx, e)
	if err != nil {
		w.Close()
		return campaignRun{}, fmt.Errorf("campaign %s: %w", e.Name, err)
	}
	if err := closeLog(); err != nil {
		return campaignRun{}, err
	}
	wall, steal := c.stop()
	if sp != nil {
		sp.add("campaign", wall)
		sp.count("merged_runs", res.Runs-res.FailedRuns)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return campaignRun{}, err
	}
	rows, err := record.ReadFile(path)
	if err != nil {
		return campaignRun{}, err
	}
	return campaignRun{
		wall: wall, steal: steal, runs: res.Runs - res.FailedRuns, bytes: int64(len(data)),
		rows: len(rows), want: len(res.Rows), log: data,
	}, nil
}

// layers derives the backend, core, stopping and record metrics of the
// traced campaign phase.
func (p *campaignPhase) layers(r *sheet) {
	seq, par := p.seq, p.par
	all := func(name string) []float64 { return append(seq.get(name), par.get(name)...) }
	seqWall, parWall := seq.sum("campaign"), par.sum("campaign")
	wall := seqWall + parWall
	invokes := all("backend.invoke")
	merged := seq.counter("merged_runs") + par.counter("merged_runs")

	pctls(r, "backend.invoke_us", "us", invokes)
	// Busy shares are of the worker time available: wall x Parallel.
	r.set("backend.busy_share", "ratio",
		(seq.sum("backend.invoke")+par.sum("backend.invoke"))/(seqWall+parWall*float64(p.cfg.nproc)))

	// Self time of the sequential launcher: wall minus the time spent in
	// the backend, the rule and the record writer, per merged run.
	self := seqWall - seq.sum("backend.invoke") - seq.sum("stopping.add") - seq.sum("record.write") - seq.sum("record.close")
	r.set("core.self_us_per_run", "us", self/float64(seq.counter("merged_runs"))*1e6)
	r.set("core.useful_run_ratio", "ratio", float64(merged)/float64(len(invokes)))

	// The rule and the writer run on the single merge goroutine.
	pctls(r, "stopping.add_us", "us", all("stopping.add"))
	r.set("stopping.busy_share", "ratio", (seq.sum("stopping.add")+par.sum("stopping.add"))/wall)

	pctls(r, "record.write_us", "us", all("record.write"))
	r.set("record.busy_share", "ratio", (seq.sum("record.write")+par.sum("record.write"))/wall)
	r.set("record.close_ms", "ms", median(all("record.close"))*1e3)
	r.set("record.bytes_per_row", "bytes", p.bytesPerRow)
}
