// Package report is SHARP's Reporter module (§IV-e): it turns raw
// measurement distributions into human-friendly Markdown reports with the
// full statistics suite — summaries, uncertainty (confidence intervals),
// distribution visualizations, modality, classification, and pairwise
// distribution comparisons. Where the paper renders RMarkdown to PDF, this
// reporter emits self-contained Markdown with ASCII graphics.
package report

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"sharp/internal/core"
	"sharp/internal/stats"
	"sharp/internal/textplot"
)

// Options controls report rendering.
type Options struct {
	// PlotWidth is the character width of plots (default 50).
	PlotWidth int
	// Bootstrap is the resample count for bootstrap CIs (default 500).
	Bootstrap int
	// Level is the confidence level (default 0.95).
	Level float64
}

func (o Options) withDefaults() Options {
	if o.PlotWidth <= 0 {
		o.PlotWidth = 50
	}
	if o.Bootstrap <= 0 {
		o.Bootstrap = 500
	}
	if o.Level == 0 {
		o.Level = 0.95
	}
	return o
}

// Result renders the full report for one measurement campaign.
func Result(res *core.Result, o Options) string {
	o = o.withDefaults()
	var b strings.Builder
	e := res.Experiment
	fmt.Fprintf(&b, "# SHARP report: %s\n\n", e.Name)
	fmt.Fprintf(&b, "- workload: `%s`  backend: `%s`  rule: `%s`\n",
		e.Workload, e.Backend.Name(), res.RuleName)
	fmt.Fprintf(&b, "- runs: %d (stop: %s)\n", res.Runs, res.StopReason)
	fmt.Fprintf(&b, "- SUT: %s\n\n", e.SUT.String())
	b.WriteString(Distribution(e.Metric, res.Samples, o))
	return b.String()
}

// Distribution renders the statistics and plots of one sample set.
//
// It sorts the samples once and hands that view to every statistic and
// plot that depends only on the multiset. The mean CIs, the bootstrap, the
// KDE bandwidth's standard deviation and Min/Max keep the caller's order:
// Kahan and plain summation and the resample indices depend on it.
func Distribution(name string, samples []float64, o Options) string {
	o = o.withDefaults()
	var b strings.Builder
	sorted := stats.SortedCopy(samples)
	sum, err := stats.Describe(sorted)
	if err != nil {
		return fmt.Sprintf("## %s\n\n(no samples)\n", name)
	}
	fmt.Fprintf(&b, "## Distribution of %s\n\n", name)
	b.WriteString(textplot.Table(
		[]string{"n", "mean", "std", "cv", "min", "p25", "median", "p75", "p95", "p99", "max", "skew", "kurtosis"},
		[][]string{{
			fmt.Sprintf("%d", sum.N),
			fmt.Sprintf("%.4g", sum.Mean),
			fmt.Sprintf("%.3g", sum.StdDev),
			fmt.Sprintf("%.3g", sum.CV),
			fmt.Sprintf("%.4g", sum.Min),
			fmt.Sprintf("%.4g", sum.P25),
			fmt.Sprintf("%.4g", sum.Median),
			fmt.Sprintf("%.4g", sum.P75),
			fmt.Sprintf("%.4g", sum.P95),
			fmt.Sprintf("%.4g", sum.P99),
			fmt.Sprintf("%.4g", sum.Max),
			fmt.Sprintf("%.3g", sum.Skewness),
			fmt.Sprintf("%.3g", sum.Kurtosis),
		}},
	))
	b.WriteString("\n")
	// Uncertainty: parametric and bootstrap CI for the mean, order-statistic
	// CI for the median.
	meanCI := stats.MeanCI(samples, o.Level)
	rng := rand.New(rand.NewPCG(uint64(len(samples)), 0x5eed))
	bootCI := stats.BootstrapMeanCI(rng, samples, o.Bootstrap, o.Level)
	medCI := stats.QuantileCI(sorted, 0.5, o.Level)
	fmt.Fprintf(&b, "Uncertainty (level %.0f%%):\n\n", o.Level*100)
	fmt.Fprintf(&b, "- mean CI (t): [%.4g, %.4g]\n", meanCI.Low, meanCI.High)
	fmt.Fprintf(&b, "- mean CI (bootstrap x%d): [%.4g, %.4g]\n", o.Bootstrap, bootCI.Low, bootCI.High)
	fmt.Fprintf(&b, "- median CI (order stat): [%.4g, %.4g]\n\n", medCI.Low, medCI.High)
	// Shape: modality + classification.
	// stats.NewKDE(samples), built on the shared sorted view.
	bw := stats.SilvermanFromStats(len(samples), stats.StdDev(samples), sum.IQR)
	modes := stats.NewKDESorted(sorted, bw).Modes(256, 0.15, 0.25)
	fmt.Fprintf(&b, "Modality: %d mode(s) at", len(modes))
	for _, md := range modes {
		fmt.Fprintf(&b, " %.4g", md.Location)
	}
	fmt.Fprintf(&b, "\n\n")
	fmt.Fprintf(&b, "Histogram (bin rule: %s):\n\n```\n%s```\n\n",
		stats.BinMinWidth, textplot.HistogramData(plotView(samples, sorted), o.PlotWidth))
	lo, hi := stats.Min(samples), stats.Max(samples)
	fmt.Fprintf(&b, "Boxplot:\n\n```\n%s\n```\n\n", textplot.Boxplot(sorted, lo, hi, o.PlotWidth))
	fmt.Fprintf(&b, "ECDF:\n\n```\n%s```\n", textplot.ECDF(plotView(samples, sorted), o.PlotWidth, 10))
	return b.String()
}

// plotView picks the slice to hand the plots that print the extremes of
// their input (textplot.HistogramData and textplot.ECDF take its Min and
// Max): the sorted view of xs when its Min and Max are the same bits as
// those of xs, and xs itself otherwise. They differ only when an extreme
// is a zero of both signs, or for a NaN: Min and Max then answer by
// position.
func plotView(xs, sorted []float64) []float64 {
	if math.Float64bits(stats.Min(sorted)) == math.Float64bits(stats.Min(xs)) &&
		math.Float64bits(stats.Max(sorted)) == math.Float64bits(stats.Max(xs)) {
		return sorted
	}
	return xs
}

// Comparison renders a pairwise distribution comparison (§V-B style),
// showing both the point-summary view (NAMD, means) and the
// distribution view (KS with p-value, Wasserstein, JSD, overlap, modality).
// a and b are the sample sets cmp was computed from: the boxplots and
// histograms are drawn from the sorted views core.Compare left in
// cmp.Sorted, and a side is sorted here only when its view is not as long
// as the set (a Comparison built by hand, say).
func Comparison(cmp core.Comparison, a, b []float64, o Options) string {
	o = o.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Comparison: %s vs %s\n\n", cmp.NameA, cmp.NameB)
	sb.WriteString(textplot.Table(
		[]string{"metric", "value", "interpretation"},
		[][]string{
			{"mean A / mean B", fmt.Sprintf("%.4g / %.4g", cmp.MeanA, cmp.MeanB), fmt.Sprintf("speedup %.2fx", cmp.Speedup)},
			{"NAMD (point-summary)", fmt.Sprintf("%.4f", cmp.NAMD), interpretNAMD(cmp.NAMD)},
			{"KS (distribution)", fmt.Sprintf("%.4f (p=%.3g)", cmp.KS, cmp.KSTest.PValue), interpretKS(cmp.KS, cmp.KSTest.PValue)},
			{"Wasserstein-1", fmt.Sprintf("%.4g", cmp.W1), "mean quantile displacement"},
			{"Jensen-Shannon", fmt.Sprintf("%.4f", cmp.JSD), "0 = identical, 1 = disjoint"},
			{"overlap", fmt.Sprintf("%.4f", cmp.Overlap), "shared probability mass"},
			{"Mann-Whitney U", fmt.Sprintf("p=%.3g", cmp.MannWhitney.PValue), "location shift test"},
			{"modes", fmt.Sprintf("%d vs %d", cmp.ModesA, cmp.ModesB), "performance states"},
		},
	))
	sb.WriteString("\n")
	if len(a) > 0 && len(b) > 0 {
		lo := stats.Min(a)
		hi := stats.Max(a)
		if m := stats.Min(b); m < lo {
			lo = m
		}
		if m := stats.Max(b); m > hi {
			hi = m
		}
		sortedA, sortedB := cmp.Sorted[0], cmp.Sorted[1]
		if len(sortedA) != len(a) {
			sortedA = stats.SortedCopy(a)
		}
		if len(sortedB) != len(b) {
			sortedB = stats.SortedCopy(b)
		}
		fmt.Fprintf(&sb, "Boxplots (common scale %.4g .. %.4g):\n\n```\n", lo, hi)
		fmt.Fprintf(&sb, "%-12s %s\n", truncate(cmp.NameA, 12), textplot.Boxplot(sortedA, lo, hi, o.PlotWidth))
		fmt.Fprintf(&sb, "%-12s %s\n", truncate(cmp.NameB, 12), textplot.Boxplot(sortedB, lo, hi, o.PlotWidth))
		sb.WriteString("```\n\n")
		fmt.Fprintf(&sb, "Histogram %s:\n\n```\n%s```\n\n", cmp.NameA, textplot.HistogramData(plotView(a, sortedA), o.PlotWidth))
		fmt.Fprintf(&sb, "Histogram %s:\n\n```\n%s```\n", cmp.NameB, textplot.HistogramData(plotView(b, sortedB), o.PlotWidth))
	}
	return sb.String()
}

func interpretNAMD(v float64) string {
	switch {
	case v < 0.01:
		return "means indistinguishable"
	case v < 0.05:
		return "small mean difference"
	default:
		return "substantial mean difference"
	}
}

func interpretKS(d, p float64) string {
	switch {
	case p > 0.05:
		return "distributions statistically indistinguishable"
	case d < 0.1:
		return "minor distribution difference"
	case d < 0.3:
		return "clear distribution difference"
	default:
		return "strong distribution difference"
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
