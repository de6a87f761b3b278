package report

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sharp/internal/stats"
	"sharp/internal/textplot"
	"strings"
	"testing"

	"sharp/internal/core"
	"sharp/internal/testsamples"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenCase is one pair of sample sets rendered by every report entry
// point: both distributions, their comparison and a two-result suite.
type goldenCase struct {
	name         string
	nameA, nameB string
	a, b         func(testing.TB) []float64
}

func goldenCases() []goldenCase {
	sim := func(bench, m string, seed uint64) func(testing.TB) []float64 {
		return func(tb testing.TB) []float64 { return testsamples.SimExecTimes(tb, bench, m, seed) }
	}
	ties := func(seed uint64, lo int) func(testing.TB) []float64 {
		return func(testing.TB) []float64 { return testsamples.SeededHalfSteps(seed, 3_000, lo) }
	}
	return []goldenCase{
		{"hotspot", "hotspot@machine1", "hotspot@machine3", sim("hotspot", "machine1", 11), sim("hotspot", "machine3", 12)},
		{"srad", "srad@machine1", "srad@machine3", sim("srad", "machine1", 21), sim("srad", "machine3", 22)},
		// Zero is the minimum of A and the maximum of B.
		{"ties", "ties-up", "ties-down", ties(31, 0), ties(32, -8)},
	}
}

func renderGolden(t *testing.T, c goldenCase) string {
	a, b := c.a(t), c.b(t)
	cmp, err := core.Compare(c.nameA, a, c.nameB, b)
	if err != nil {
		t.Fatal(err)
	}
	suite := []*core.Result{
		{Experiment: core.Experiment{Name: c.nameA}, Samples: a, RuleName: "fixed"},
		{Experiment: core.Experiment{Name: c.nameB}, Samples: b, RuleName: "fixed"},
	}
	return strings.Join([]string{
		Distribution(c.nameA, a, Options{}),
		Distribution(c.nameB, b, Options{}),
		Comparison(cmp, a, b, Options{}),
		Suite(c.name, suite, Options{}),
	}, "\n")
}

// TestGoldenReports pins the rendered bytes of Distribution, Comparison
// and Suite on perfbench-sized Sim samples and a tie-heavy pair with
// signed zeros. Regenerate with -update only when the output is meant to
// change.
func TestGoldenReports(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			got := renderGolden(t, c)
			path := filepath.Join("testdata", "golden_"+c.name+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs in length: %d vs %d lines", path, len(gl), len(wl))
			}
		})
	}
}

// Suite renders an overview of multiple results: a summary table plus
// boxplots on a common scale, the presentation style of the paper's Fig. 4.
func Suite(title string, results []*core.Result, o Options) string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "# SHARP suite report: %s\n\n", title)
	var rows [][]string
	lo, hi := 0.0, 0.0
	first := true
	// One sort per result serves its summary, mode count and boxplot.
	sorted := make([][]float64, len(results))
	for i, r := range results {
		sorted[i] = stats.SortedCopy(r.Samples)
		sum, err := stats.Describe(sorted[i])
		if err != nil {
			continue
		}
		if first || sum.Min < lo {
			lo = sum.Min
		}
		if first || sum.Max > hi {
			hi = sum.Max
		}
		first = false
		rows = append(rows, []string{
			r.Experiment.Name,
			fmt.Sprintf("%d", sum.N),
			fmt.Sprintf("%.4g", sum.Mean),
			fmt.Sprintf("%.4g", sum.Median),
			fmt.Sprintf("%.4g", sum.P95),
			fmt.Sprintf("%.3g", sum.CV),
			fmt.Sprintf("%d", stats.CountModesView(r.Samples, sorted[i])),
			r.RuleName,
		})
	}
	b.WriteString(textplot.Table(
		[]string{"experiment", "n", "mean", "median", "p95", "cv", "modes", "rule"}, rows))
	if len(results) > 1 && hi > lo {
		fmt.Fprintf(&b, "\nBoxplots (common scale %.4g .. %.4g):\n\n```\n", lo, hi)
		for i, r := range results {
			if len(r.Samples) == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-18s %s\n", truncate(r.Experiment.Name, 18),
				textplot.Boxplot(sorted[i], lo, hi, o.PlotWidth))
		}
		b.WriteString("```\n")
	}
	return b.String()
}
