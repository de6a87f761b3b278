package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/record"
	"sharp/internal/report"
	"sharp/internal/similarity"
	"sharp/internal/stats"
	"sharp/internal/textplot"
)

// analysisPhase replays the large log, repairs and reopens a copy of it
// with a torn last run, renders the sharp report distribution of the
// primary metric of its first campaign, and compares that campaign with its
// run on another machine as sharp compare does, per unit.
type analysisPhase struct {
	cfg config
	st  *setup
	t   *tally
	sp  *spans // nil untraced
	// torn is the phase's copy of the large log, torn again before every
	// repair; tornRows is its complete row count before the next tear.
	torn     string
	tornRows int

	units int
	// One value per unit: replayed rows per second and seconds taken.
	replay, resume, rep, cmp series
	wall                     float64
}

func openAnalysis(_ context.Context, cfg config, st *setup, sp *spans, t *tally) (phase, error) {
	name := "torn.sharpb"
	if sp != nil {
		name = "torn-traced.sharpb"
	}
	p := &analysisPhase{cfg: cfg, st: st, t: t, sp: sp, torn: filepath.Join(st.dir, name), tornRows: st.rowsA}
	if err := copyFile(st.logA, p.torn); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *analysisPhase) unit(_ context.Context, _ int) error {
	st, t := p.st, p.t
	unitStart := time.Now()

	c := startClock()
	rows, err := record.ReadFile(st.logA)
	if err != nil {
		return err
	}
	wall, steal := c.stop()
	p.replay.add(float64(len(rows))/wall, steal)
	t.check(len(rows) == st.rowsA, "analysis: replayed %d rows, wrote %d", len(rows), st.rowsA)
	// The exec_time samples of every reported campaign, in one pass and
	// without copying rows, so the replayed log is the only large
	// allocation of the unit.
	samples := make([][]float64, len(st.reportExperiments))
	for _, r := range rows {
		if r.Metric != backend.MetricExecTime {
			continue
		}
		for k, name := range st.reportExperiments {
			if r.Experiment == name {
				samples[k] = append(samples[k], r.Value)
			}
		}
	}
	a := samples[0]
	rows = nil

	// One repair takes a tenth of a second; the unit's mean over several
	// is steadier than one. Collecting first, untimed, frees the replayed
	// rows and the previous repair's garbage, so peak RSS stays the
	// footprint of one operation.
	resume, resumeSteal := 0.0, 0.0
	for k := 0; k < resumeRepeats; k++ {
		runtime.GC()
		if err := tear(p.torn); err != nil {
			return err
		}
		c := startClock()
		w, n, err := record.OpenAppend(p.torn, record.Options{FlushEvery: 1})
		if err != nil {
			return fmt.Errorf("reopening torn log: %w", err)
		}
		if err := w.Close(); err != nil {
			return err
		}
		wall, steal := c.stop()
		resume += wall
		resumeSteal += steal * wall
		t.check(n == p.tornRows-analysisConc, "analysis: torn log reopened with %d rows, want %d", n, p.tornRows-analysisConc)
		p.tornRows = n
	}
	p.resume.add(resume/resumeRepeats, resumeSteal/resume)

	// One report per benchmark, so the unit's mean report time does not
	// hang on the shape of one seed's draws of one benchmark.
	c = startClock()
	for k, xs := range samples {
		text := report.Distribution(backend.MetricExecTime, xs, report.Options{})
		t.check(st.digest("analysis/report/"+st.reportExperiments[k], []byte(text)),
			"analysis: report of %s differs from an earlier render", st.reportExperiments[k])
	}
	wall, steal = c.stop()
	p.rep.add(wall/float64(len(samples)), steal)

	rowsB, err := record.ReadFile(st.logB)
	if err != nil {
		return err
	}
	b := record.Values(record.Select(rowsB, record.Filter{Experiment: st.compareExperiment, Metric: backend.MetricExecTime}))
	c = startClock()
	cmp, err := core.Compare(st.reportExperiments[0], a, st.compareExperiment, b)
	if err != nil {
		return err
	}
	text := report.Comparison(cmp, a, b, report.Options{})
	wall, steal = c.stop()
	p.cmp.add(wall, steal)
	t.check(st.digest("analysis/compare", []byte(text)), "analysis: comparison text differs from an earlier render")

	p.wall += time.Since(unitStart).Seconds()
	p.units++
	if p.sp != nil {
		return p.layers(a, b)
	}
	return nil
}

func (p *analysisPhase) finish(e2e, layer *sheet, hs hostScale) float64 {
	units := float64(p.units)
	p.cfg.logf("analysis: %d units, %.2f s per unit", p.units, p.wall/units)
	hs.rate(e2e, "replay_rows_per_s", "rows/s", p.replay)
	hs.time(e2e, "resume_s", p.resume)
	hs.time(e2e, "report_s", p.rep)
	hs.time(e2e, "compare_s", p.cmp)
	if p.sp != nil {
		for _, name := range []string{"record.scan", "record.truncate", "stats.describe", "stats.bootstrap",
			"stats.quantile_ci", "stats.kde_modes", "textplot.render", "similarity.ks", "similarity.namd"} {
			layer.set(name+"_ms", "ms", median(p.sp.get(name))*1e3)
		}
		layer.set("analysis.n", "count", units)
	}
	return p.wall / units
}

func (p *analysisPhase) close() { os.Remove(p.torn) }

// copyFile copies the log at src to dst, without its index sidecar.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// tear removes the log's index sidecar and cuts its last bytes off,
// tearing the final run the way a crash does; readers must then scan the
// whole file.
func tear(path string) error {
	if err := os.Remove(path + ".idx"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, fi.Size()-7)
}

// layers times the record read-path primitives on the torn copy, torn
// again, and the statistics report.Distribution and core.Compare call, by
// direct calls on the same samples.
func (p *analysisPhase) layers(a, b []float64) error {
	sp := p.sp
	if err := tear(p.torn); err != nil {
		return err
	}
	start := time.Now()
	if _, _, _, err := record.ScanFile(p.torn); err != nil {
		return err
	}
	sp.since("record.scan", start)
	start = time.Now()
	rows, _, err := record.TruncateTrailingRun(p.torn)
	if err != nil {
		return err
	}
	sp.since("record.truncate", start)
	p.tornRows = rows

	o := 0.95
	start = time.Now()
	if _, err := stats.Describe(a); err != nil {
		return err
	}
	sp.since("stats.describe", start)
	start = time.Now()
	stats.BootstrapCI(rand.New(rand.NewPCG(uint64(len(a)), 0x5eed)), a, 500, o, stats.Mean)
	sp.since("stats.bootstrap", start)
	start = time.Now()
	stats.QuantileCI(a, 0.5, o)
	sp.since("stats.quantile_ci", start)
	start = time.Now()
	stats.NewKDE(a).Modes(256, 0.15, 0.25)
	sp.since("stats.kde_modes", start)
	start = time.Now()
	textplot.HistogramData(a, 50)
	textplot.Boxplot(a, stats.Min(a), stats.Max(a), 50)
	textplot.ECDF(a, 50, 10)
	sp.since("textplot.render", start)

	start = time.Now()
	similarity.KS(a, b)
	sp.since("similarity.ks", start)
	start = time.Now()
	if _, err := similarity.NAMD(a, b); err != nil {
		return err
	}
	sp.since("similarity.namd", start)
	return nil
}
