package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sharp/internal/backend"
	"sharp/internal/cache"
	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/stopping"
	"sharp/internal/sweep"
)

// design is the sweep every unit of the phase runs: the workload's
// benchmarks x machine1..3 x days, under an adaptive rule.
func design(cfg config, cacheDir string, tracer obs.Tracer) sweep.Design {
	days := make([]int, sweepDays)
	for i := range days {
		days[i] = i + 1
	}
	d := sweep.Design{
		Name:      "bench",
		Workloads: cfg.benches,
		Machines:  machines,
		Days:      days,
		RuleName:  sweepRule,
		Threshold: sweepThreshold,
		MaxRuns:   sweepMaxRuns,
		Seed:      mix(cfg.seed, "sweep"),
		Parallel:  cfg.nproc,
		CacheDir:  cacheDir,
		Tracer:    tracer,
	}
	d.SetClock(frozenClock)
	return d
}

// sweepPhase runs the design cold on an empty cache directory and then
// sweepWarmPasses times warm on the filled one, per unit.
type sweepPhase struct {
	cfg config
	st  *setup
	t   *tally
	sp  *spans // nil untraced
	// tracer is wired into the cold pass of a traced phase.
	tracer *eventTracer

	passes             int
	checks             []float64 // rule.eval events per traced cold pass
	coldWall, warmWall float64
	runs               float64 // runs per pass, summed over passes
	coldRate, warmRate series  // runs per second, one per unit
	warmHit            float64
}

func openSweep(_ context.Context, cfg config, st *setup, sp *spans, t *tally) (phase, error) {
	p := &sweepPhase{cfg: cfg, st: st, t: t, sp: sp}
	if sp != nil {
		p.tracer = newEventTracer(sp)
	}
	return p, nil
}

func (p *sweepPhase) unit(ctx context.Context, i int) error {
	traced := p.sp != nil
	dir := filepath.Join(p.st.dir, fmt.Sprintf("sweep-cache-%d-%v", i, traced))
	defer os.RemoveAll(dir)
	evalsBefore := 0
	var tracer obs.Tracer
	if traced {
		evalsBefore = p.sp.counter("event." + obs.EventRuleEval)
		tracer = p.tracer
	}

	clk := startClock()
	cold, err := sweep.Run(ctx, design(p.cfg, dir, tracer))
	if err != nil {
		return err
	}
	cw, coldSteal := clk.stop()
	coldCounters, err := counters(dir)
	if err != nil {
		return err
	}
	n := 0
	for _, c := range cold.Cells {
		n += c.Result.Runs
	}
	t, cells := p.t, uint64(len(cold.Cells))
	t.check(coldCounters.Hits == 0 && coldCounters.Misses == cells,
		"sweep %d: cold pass hits %d misses %d of %d cells", i, coldCounters.Hits, coldCounters.Misses, cells)
	coldCSV, err := csvDigest(cold)
	if err != nil {
		return err
	}
	t.check(p.st.digest("sweep", coldCSV[:]), "sweep %d: CSV differs from an earlier pass", i)

	// A warm pass takes half the time of a cold one; running it twice per
	// unit gives it as many measured seconds.
	ww, warmSteal, prev := 0.0, 0.0, coldCounters
	for w := 0; w < sweepWarmPasses; w++ {
		clk := startClock()
		warm, err := sweep.Run(ctx, design(p.cfg, dir, nil))
		if err != nil {
			return err
		}
		wall, steal := clk.stop()
		ww += wall
		warmSteal += steal * wall
		c, err := counters(dir)
		if err != nil {
			return err
		}
		same := len(cold.Cells) == len(warm.Cells)
		for k := 0; same && k < len(cold.Cells); k++ {
			same = sameRows(cold.Cells[k].Result.Rows, warm.Cells[k].Result.Rows)
		}
		t.check(same, "sweep %d: warm rows, and so the warm CSV, differ from cold", i)
		hits := c.Hits - prev.Hits
		t.check(hits == cells && c.Misses == prev.Misses, "sweep %d: warm pass hits %d of %d cells", i, hits, cells)
		p.warmHit = float64(hits) / float64(cells)
		prev = c
	}

	p.passes++
	p.coldWall += cw
	p.warmWall += ww
	p.coldRate.add(float64(n)/cw, coldSteal)
	p.warmRate.add(float64(n*sweepWarmPasses)/ww, warmSteal/ww)
	p.runs += float64(n)
	if !traced {
		return nil
	}
	evals := p.sp.counter("event."+obs.EventRuleEval) - evalsBefore
	if evals == 0 {
		return fmt.Errorf("sweep %d: no rule.eval events", i)
	}
	p.checks = append(p.checks, float64(evals))
	return timeCache(p.cfg, dir, p.sp)
}

func (p *sweepPhase) finish(e2e, layer *sheet, hs hostScale) float64 {
	p.cfg.logf("sweep: %d units of 1 cold and %d warm passes, %d runs per pass, cold %.3f s per pass",
		p.passes, sweepWarmPasses, int(p.runs)/p.passes, p.coldWall/float64(p.passes))
	hs.rate(e2e, "sweep_cold_runs_per_s", "runs/s", p.coldRate)
	hs.rate(e2e, "sweep_warm_runs_per_s", "runs/s", p.warmRate)
	if sp := p.sp; sp != nil {
		layer.set("stopping.checks", "count", median(p.checks))
		// Only the total cell time is exact (see eventTracer), so cells
		// report their mean, not percentiles.
		cellSecs, cells := p.tracer.campaigns()
		layer.set("sweep.cell_ms.mean", "ms", cellSecs/float64(cells)*1e3)
		layer.set("sweep.cell_ms.n", "count", float64(cells))
		layer.set("sweep.parallel_efficiency", "ratio", cellSecs/(p.coldWall*float64(p.cfg.nproc)))
		layer.set("cache.hit_ratio", "ratio", p.warmHit)
		pctls(layer, "cache.get_ms", "ms", sp.get("cache.get"))
		pctls(layer, "cache.put_ms", "ms", sp.get("cache.put"))
		pctls(layer, "core.replay_ms", "ms", sp.get("core.replay"))
	}
	return (p.coldWall + p.warmWall) / ((1 + sweepWarmPasses) * p.runs)
}

func (p *sweepPhase) close() {}

// counters reads the persisted lookup counters of a cache directory.
func counters(dir string) (cache.Counters, error) {
	s, err := cache.Open(dir)
	if err != nil {
		return cache.Counters{}, err
	}
	return s.Counters(), nil
}

// sameRows reports whether a and b hold the same rows, values bit for bit.
// A tidy CSV is a function of its rows, so equal rows give byte-identical
// CSVs, at a fraction of the cost of encoding both.
func sameRows(a, b []record.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Timestamp.Equal(y.Timestamp) || math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
		x.Timestamp, y.Timestamp, x.Value, y.Value = time.Time{}, time.Time{}, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// csvDigest returns the SHA-256 of the tidy CSV that Outcome.SaveCSV
// writes (record.NewWriter over Outcome.Rows), without the disk round trip
// and without flattening the cells' rows into one slice.
func csvDigest(o *sweep.Outcome) ([32]byte, error) {
	h := sha256.New()
	w := record.NewWriter(h)
	for _, c := range o.Cells {
		if err := w.WriteAll(c.Result.Rows); err != nil {
			return [32]byte{}, err
		}
	}
	if err := w.Close(); err != nil {
		return [32]byte{}, err
	}
	return [32]byte(h.Sum(nil)), nil
}

// timeCache times the cache and replay work of a warm pass by direct calls
// to the same public functions on every committed entry of dir: Store.Get,
// Launcher.ReplayLog on the cell's experiment, and Store.Put of the rows
// into a scratch store. sweep.Run does not hand Design.Tracer to its cache
// store, so no cache.* event would time these for us.
func timeCache(cfg config, dir string, sp *spans) error {
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	scratch, err := cache.Open(dir + "-put")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch.Dir())
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	l := &core.Launcher{Clock: frozenClock}
	seed := design(cfg, "", nil).Seed
	for _, de := range entries {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || de.Name() == "counters.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return err
		}
		var meta cache.Meta
		if err := json.Unmarshal(raw, &meta); err != nil {
			return err
		}
		start := time.Now()
		rows, _, err := store.Get(key, meta.Experiment)
		sp.since("cache.get", start)
		if err != nil || len(rows) == 0 {
			return fmt.Errorf("cache entry %s: %d rows, %v", key, len(rows), err)
		}
		m, err := machine.ByName(rows[0].Machine)
		if err != nil {
			return err
		}
		rule, err := stopping.NewNamed(sweepRule, sweepThreshold, stopping.Bounds{MaxSamples: sweepMaxRuns})
		if err != nil {
			return err
		}
		e := core.Experiment{
			Name: meta.Experiment, Workload: rows[0].Workload,
			Backend: backend.NewSim(m, seed), Rule: rule,
			Concurrency: 1, Day: rows[0].Day, Seed: seed,
		}
		start = time.Now()
		if _, err := l.ReplayLog(e, rows); err != nil {
			return fmt.Errorf("replaying %s: %w", meta.Experiment, err)
		}
		sp.since("core.replay", start)
		start = time.Now()
		if err := scratch.Put(key, meta.Kind, meta.Experiment, rows); err != nil {
			return err
		}
		sp.since("cache.put", start)
	}
	return nil
}
