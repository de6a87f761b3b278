// Package regress implements automated performance regression testing on
// top of SHARP's records: compare the distribution measured by a new run
// against a recorded baseline and produce a verdict.
//
// This is the "automated performance regression testing" activity the
// paper lists for the framework (GUI roadmap, §IV; the Popper convention,
// §VII) using the statistical machinery the paper recommends: the
// Mann-Whitney U test for location shifts (as in Eismann et al.) and the
// KS statistic for distribution-shape changes that location tests miss.
package regress

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"sharp/internal/record"
	"sharp/internal/stats"
)

// Verdict classifies a baseline-vs-current comparison.
type Verdict string

// Verdicts, ordered from good to bad.
const (
	// Improvement: the current run is significantly faster.
	Improvement Verdict = "improvement"
	// Pass: no significant change.
	Pass Verdict = "pass"
	// ShapeChange: central tendency unchanged but the distribution shape
	// (spread/modes/tails) moved — invisible to mean-based gates, flagged
	// by KS. New performance states often precede regressions.
	ShapeChange Verdict = "shape-change"
	// Regression: the current run is significantly slower.
	Regression Verdict = "regression"
	// Inconclusive: not enough samples to decide.
	Inconclusive Verdict = "inconclusive"
)

// Config tunes the regression gate. Zero values take documented defaults.
type Config struct {
	// Alpha is the significance level for hypothesis tests (default 0.01;
	// regression gates run often, so a strict level limits false alarms).
	Alpha float64
	// KSThreshold is the KS statistic above which a significant KS test
	// counts as a shape change (default 0.1, the paper's rule threshold).
	KSThreshold float64
	// TolerancePct is the median slowdown (in percent) tolerated before a
	// significant shift is called a regression (default 2%).
	TolerancePct float64
	// MinSamples is the per-side sample floor (default 20).
	MinSamples int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.KSThreshold == 0 {
		c.KSThreshold = 0.1
	}
	if c.TolerancePct == 0 {
		c.TolerancePct = 2
	}
	if c.MinSamples == 0 {
		c.MinSamples = 20
	}
	return c
}

// Outcome is the full regression-check result.
type Outcome struct {
	Verdict Verdict
	// MedianChangePct and MeanChangePct are (current-baseline)/baseline*100.
	MedianChangePct float64
	MeanChangePct   float64
	MannWhitney     stats.TestResult
	KS              stats.TestResult
	// CliffsDelta is the effect size of the shift (baseline vs current);
	// negligible effects (|d| < 0.147) never fail the gate even when n is
	// large enough to make them statistically significant.
	CliffsDelta   float64
	ModesBaseline int
	ModesCurrent  int
	NBaseline     int
	NCurrent      int
	// Explanation is a human-readable justification of the verdict.
	Explanation string
}

// Check compares current against baseline and issues a verdict. Larger
// sample values are assumed worse (execution time semantics).
func Check(baseline, current []float64, cfg Config) (Outcome, error) {
	cfg = cfg.withDefaults()
	if len(baseline) == 0 || len(current) == 0 {
		return Outcome{}, errors.New("regress: empty sample set")
	}
	// NaN observations poison every downstream statistic (Cliff's delta
	// becomes NaN, the KDE mode counter diverges), so the gate refuses to
	// classify them rather than risk a garbage verdict either way.
	if hasNaN(baseline) || hasNaN(current) {
		return Outcome{
			NBaseline: len(baseline), NCurrent: len(current),
			CliffsDelta: nan(),
			Verdict:     Inconclusive,
			Explanation: "NaN observations in sample set; check input data",
		}, nil
	}
	// One sort per side serves every statistic that depends only on the
	// multiset. The means and the mode counter's bandwidth keep the input
	// order: their summations depend on it.
	sb, sc := stats.SortedCopy(baseline), stats.SortedCopy(current)
	out := Outcome{
		NBaseline:     len(baseline),
		NCurrent:      len(current),
		ModesBaseline: stats.CountModesView(baseline, sb),
		ModesCurrent:  stats.CountModesView(current, sc),
		MannWhitney:   stats.MannWhitneyU(sb, sc),
		KS:            stats.KSTestSorted(sb, sc),
		CliffsDelta:   stats.CliffsDelta(sc, sb),
	}
	mb, mc := stats.QuantileSorted(sb, 0.5), stats.QuantileSorted(sc, 0.5)
	meanB, meanC := stats.Mean(baseline), stats.Mean(current)
	if mb != 0 {
		out.MedianChangePct = 100 * (mc - mb) / mb
	}
	if meanB != 0 {
		out.MeanChangePct = 100 * (meanC - meanB) / meanB
	}
	if len(baseline) < cfg.MinSamples || len(current) < cfg.MinSamples {
		out.Verdict = Inconclusive
		out.Explanation = fmt.Sprintf("need >= %d samples per side (have %d/%d)",
			cfg.MinSamples, len(baseline), len(current))
		return out, nil
	}
	// A NaN effect size (degenerate input such as NaN samples) carries no
	// direction: !negligible(NaN) is true, so without this guard the gate
	// could escalate garbage data into a Regression verdict.
	if out.CliffsDelta != out.CliffsDelta {
		out.Verdict = Inconclusive
		out.Explanation = "effect size undefined (NaN Cliff's delta); check input data"
		return out, nil
	}
	// With a zero baseline median the percent change is undefined
	// (MedianChangePct stays 0 for reporting), so direction falls back to
	// the raw median difference — a genuine shift away from zero must not
	// slide through the tolerance window as Pass.
	worse := out.MedianChangePct > cfg.TolerancePct
	better := out.MedianChangePct < -cfg.TolerancePct
	if mb == 0 && mc != 0 {
		worse, better = mc > 0, mc < 0
	}
	shifted := out.MannWhitney.Significant(cfg.Alpha) && !negligible(out.CliffsDelta)
	shapeMoved := out.KS.Significant(cfg.Alpha) && out.KS.Statistic > cfg.KSThreshold
	switch {
	case shifted && worse:
		out.Verdict = Regression
		out.Explanation = fmt.Sprintf("median +%.1f%% (Mann-Whitney p=%.2g)",
			out.MedianChangePct, out.MannWhitney.PValue)
	case shifted && better:
		out.Verdict = Improvement
		out.Explanation = fmt.Sprintf("median %.1f%% (Mann-Whitney p=%.2g)",
			out.MedianChangePct, out.MannWhitney.PValue)
	case shapeMoved:
		out.Verdict = ShapeChange
		out.Explanation = fmt.Sprintf("KS %.3f (p=%.2g), modes %d -> %d, median change %.1f%%",
			out.KS.Statistic, out.KS.PValue, out.ModesBaseline, out.ModesCurrent, out.MedianChangePct)
	default:
		out.Verdict = Pass
		out.Explanation = fmt.Sprintf("no significant change (median %+.1f%%, KS %.3f)",
			out.MedianChangePct, out.KS.Statistic)
	}
	return out, nil
}

// CheckFiles runs Check over two tidy-data CSV logs for the given metric.
func CheckFiles(baselinePath, currentPath, metric string, cfg Config) (Outcome, error) {
	load := func(path string) ([]float64, error) {
		rows, err := record.ReadFile(path)
		if err != nil {
			return nil, err
		}
		vals := record.Values(record.Select(rows, record.Filter{Metric: metric}))
		if len(vals) == 0 {
			return nil, fmt.Errorf("regress: no %q rows in %s", metric, path)
		}
		return vals, nil
	}
	baseline, err := load(baselinePath)
	if err != nil {
		return Outcome{}, err
	}
	current, err := load(currentPath)
	if err != nil {
		return Outcome{}, err
	}
	return Check(baseline, current, cfg)
}

// Render formats the outcome as a short report block.
func (o Outcome) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict: %s\n", o.Verdict)
	fmt.Fprintf(&b, "reason:  %s\n", o.Explanation)
	fmt.Fprintf(&b, "samples: %d baseline, %d current\n", o.NBaseline, o.NCurrent)
	fmt.Fprintf(&b, "median:  %+.2f%%   mean: %+.2f%%\n", o.MedianChangePct, o.MeanChangePct)
	fmt.Fprintf(&b, "tests:   Mann-Whitney p=%.3g, KS D=%.3f p=%.3g, Cliff's d=%.3f\n",
		o.MannWhitney.PValue, o.KS.Statistic, o.KS.PValue, o.CliffsDelta)
	fmt.Fprintf(&b, "modes:   %d -> %d\n", o.ModesBaseline, o.ModesCurrent)
	return b.String()
}

// negligible reports whether an effect size is below Cliff's conventional
// negligibility threshold.
func negligible(delta float64) bool { return delta == delta && abs(delta) < 0.147 }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

func nan() float64 { return math.NaN() }

// Failed reports whether the verdict should fail a CI gate.
func (o Outcome) Failed() bool { return o.Verdict == Regression }
