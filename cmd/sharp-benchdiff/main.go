// Command sharp-benchdiff parses `go test -bench` output and either
// snapshots it into the repo's benchmark-JSON schema (BENCH_baseline.json,
// BENCH_pr4.json) or gates it against a baseline snapshot.
//
// Snapshot mode:
//
//	go test -bench . -benchmem ./... | sharp-benchdiff -snapshot BENCH_pr4.json -description "..."
//
// Gate mode (CI): compare the deterministic ReportMetric columns — the
// reproduction targets, which must not drift no matter how the code is
// optimized — and exit non-zero on any mismatch:
//
//	sharp-benchdiff -in bench_current.txt -baseline BENCH_baseline.json -metrics 'multimodal_%,savings_%'
//
// Floor metrics (-min 'speedup_x') gate one-sided: the current value must
// meet or beat the baseline, for performance ratios that must not regress.
// A benchmark run several times (go test -count N) repeats its line: a floor
// is judged on the median of the repeats, so one slow sample on a noisy host
// does not fail the gate, and an exact column must match on every repeat.
//
// Benchmarks present in the current run but absent from the baseline carry
// gated metric columns nobody is guarding: they are reported as warnings,
// and -strict turns them into failures.
//
// Timings (ns/op, B/op, allocs/op) are machine-dependent and never gated
// pairwise.
//
// Trend mode (continuous regression detection) ingests the whole snapshot
// trajectory instead of one pair and localizes statistically significant
// level shifts per (benchmark, metric) series via E-Divisive change-point
// analysis (internal/changepoint), exiting non-zero on unacknowledged
// regressions:
//
//	sharp-benchdiff -trend 'BENCH_*.json'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"sharp/internal/fsx"
	"sharp/internal/obs"
	"sharp/internal/stats"
)

// Snapshot is the on-disk schema shared with BENCH_baseline.json.
type Snapshot struct {
	Description string             `json:"description"`
	Environment map[string]string  `json:"environment"`
	Benchmarks  []*BenchmarkResult `json:"benchmarks"`
}

// BenchmarkResult is one benchmark line.
type BenchmarkResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// procSuffix strips the -<GOMAXPROCS> suffix go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` text: header lines (goos/goarch/pkg/cpu)
// and benchmark result lines of (value, unit) pairs.
func parseBench(r io.Reader) (env map[string]string, results []*BenchmarkResult, err error) {
	env = map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				if _, seen := env[key]; !seen { // keep the first package header
					env[key] = v
				}
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		b := &BenchmarkResult{
			Name:       procSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("parse %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "MB/s":
				// throughput is machine-dependent; skip
			default:
				b.Metrics[unit] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		results = append(results, b)
	}
	return env, results, sc.Err()
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// gate compares the named deterministic metric columns of current against
// the baseline and returns the list of violations plus warnings. Columns in
// metrics must match the baseline exactly (within tol) in every repeat of a
// benchmark; columns in minMetrics are floors — the baseline value is a
// minimum the median of the current repeats must meet or beat, for
// performance-ratio metrics that only ever get noisier upward.
//
// Warnings cover the reverse direction the violation scan cannot see: a
// benchmark (or gated column) present in the current run but absent from
// the baseline — a new code path or renamed benchmark nobody is guarding.
// -strict promotes warnings to violations.
func gate(baseline *Snapshot, current []*BenchmarkResult, metrics, minMetrics []string, tol float64) (violations, warnings []string) {
	byName := map[string][]*BenchmarkResult{} // every repeat, in input order
	for _, b := range current {
		byName[b.Name] = append(byName[b.Name], b)
	}
	want := map[string]bool{}
	for _, m := range metrics {
		want[strings.TrimSpace(m)] = true
	}
	floor := map[string]bool{}
	for _, m := range minMetrics {
		floor[strings.TrimSpace(m)] = true
	}
	baseByName := map[string]*BenchmarkResult{}
	for _, b := range baseline.Benchmarks {
		baseByName[b.Name] = b
	}
	for _, base := range baseline.Benchmarks {
		for metric, bv := range base.Metrics {
			if !want[metric] && !floor[metric] {
				continue
			}
			repeats, ok := byName[base.Name]
			if !ok {
				violations = append(violations,
					fmt.Sprintf("%s: benchmark missing from current run (baseline %s=%g)", base.Name, metric, bv))
				continue
			}
			cvs := make([]float64, 0, len(repeats))
			for _, cur := range repeats {
				if cv, ok := cur.Metrics[metric]; ok {
					cvs = append(cvs, cv)
				}
			}
			if len(cvs) < len(repeats) {
				violations = append(violations,
					fmt.Sprintf("%s: metric %s missing from current run (baseline %g)", base.Name, metric, bv))
				continue
			}
			if floor[metric] {
				if cv := stats.Median(cvs); cv < bv {
					violations = append(violations,
						fmt.Sprintf("%s: %s below floor: baseline %g, current %g (median of %d)", base.Name, metric, bv, cv, len(cvs)))
				}
				continue
			}
			for _, cv := range cvs {
				if !withinTol(bv, cv, tol) {
					violations = append(violations,
						fmt.Sprintf("%s: %s drifted: baseline %g, current %g", base.Name, metric, bv, cv))
					break
				}
			}
		}
	}
	// Unguarded novelty: current benchmarks carrying gated columns the
	// baseline does not know about (each benchmark once, however often it
	// repeats).
	for _, cur := range current {
		if byName[cur.Name][0] != cur {
			continue
		}
		base := baseByName[cur.Name]
		for metric, cv := range cur.Metrics {
			if !want[metric] && !floor[metric] {
				continue
			}
			switch {
			case base == nil:
				warnings = append(warnings,
					fmt.Sprintf("%s: benchmark not in baseline (unguarded %s=%g); re-snapshot to gate it", cur.Name, metric, cv))
			default:
				if _, ok := base.Metrics[metric]; !ok {
					warnings = append(warnings,
						fmt.Sprintf("%s: metric %s not in baseline (unguarded, current %g); re-snapshot to gate it", cur.Name, metric, cv))
				}
			}
		}
	}
	sort.Strings(warnings)
	return violations, warnings
}

// withinTol reports |a-b| <= tol * max(1, |a|, |b|): relative for large
// values, absolute near zero, and symmetric — comparing (a, b) must reach
// the same verdict as comparing (b, a), so the gate tolerates the same
// drift whichever side is the baseline.
func withinTol(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func main() {
	in := flag.String("in", "-", "bench output file (- for stdin)")
	snapshot := flag.String("snapshot", "", "write a snapshot JSON to this path")
	description := flag.String("description", "", "snapshot description")
	baseline := flag.String("baseline", "", "baseline snapshot JSON to gate against")
	metrics := flag.String("metrics", "multimodal_%,savings_%", "comma-separated deterministic metric columns to gate")
	min := flag.String("min", "", "comma-separated metric columns gated as floors (current >= baseline)")
	tol := flag.Float64("tol", 1e-6, "relative drift tolerance")
	strict := flag.Bool("strict", false, "fail on warnings (benchmarks/columns unguarded by the baseline)")
	trend := flag.String("trend", "", "glob of snapshot JSONs (lexical order) for change-point trend analysis")
	trendTimings := flag.Bool("trend-timings", false, "trend mode: also watch machine-dependent ns/op, B/op, allocs/op series")
	higherBetter := flag.String("higher-better", "speedup_x,rows/s", "trend mode: metric columns where larger is better")
	ack := flag.String("ack", "", "trend mode: acknowledged change points (bench/metric@index, comma-separated)")
	ackFile := flag.String("ack-file", "", "trend mode: file of acknowledged change points, one bench/metric@index per line (# comments); merged with -ack, missing file = no acks")
	alpha := flag.Float64("alpha", 0.05, "trend mode: permutation-test significance level")
	perms := flag.Int("perms", 199, "trend mode: permutations per segment test")
	minSegment := flag.Int("min-segment", 2, "trend mode: minimum snapshots per segment")
	seed := flag.Uint64("seed", 1, "trend mode: permutation RNG seed")
	trace := flag.String("trace", "", "trend mode: write detector events as JSONL to this path")
	flag.Parse()

	if *trend != "" {
		os.Exit(trendMain(*trend, *trendTimings, *higherBetter, *ack, *ackFile, *alpha, *perms, *minSegment, *seed, *trace))
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	env, results, err := parseBench(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "sharp-benchdiff: no benchmark lines found in input")
		os.Exit(2)
	}

	if *snapshot != "" {
		s := Snapshot{Description: *description, Environment: env, Benchmarks: results}
		data, err := json.MarshalIndent(&s, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Atomic: a crash mid-snapshot must not tear the repo's baseline.
		if err := fsx.WriteFile(*snapshot, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *snapshot, len(results))
	}

	if *baseline != "" {
		base, err := loadSnapshot(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cols := strings.Split(*metrics, ",")
		var minCols []string
		if *min != "" {
			minCols = strings.Split(*min, ",")
		}
		violations, warnings := gate(base, results, cols, minCols, *tol)
		for _, w := range warnings {
			fmt.Fprintln(os.Stderr, "WARN: "+w)
		}
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "DRIFT: "+v)
		}
		if len(violations) > 0 || (*strict && len(warnings) > 0) {
			os.Exit(1)
		}
		fmt.Printf("ok: %s columns match %s\n", *metrics, *baseline)
	}
}

// trendMain runs trend mode end to end and returns the process exit code.
func trendMain(pattern string, timings bool, higherBetter, ack, ackFile string, alpha float64, perms, minSegment int, seed uint64, trace string) int {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharp-benchdiff: bad -trend pattern:", err)
		return 2
	}
	sort.Strings(paths)
	if len(paths) < 2 {
		fmt.Fprintf(os.Stderr, "sharp-benchdiff: -trend %q matched %d snapshots, need at least 2\n", pattern, len(paths))
		return 2
	}
	snaps := make([]*Snapshot, len(paths))
	for i, p := range paths {
		if snaps[i], err = loadSnapshot(p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	acks, err := parseAckFile(ack, ackFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharp-benchdiff:", err)
		return 2
	}
	o := trendOptions{
		Alpha: alpha, Permutations: perms, MinSegment: minSegment, Seed: seed,
		Timings: timings, HigherBetter: splitList(higherBetter), Ack: acks,
	}
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		t := obs.NewJSONL(f)
		defer obs.Close(t)
		o.Tracer = t
	}
	if failures := runTrend(paths, snaps, o, os.Stdout); failures > 0 {
		fmt.Fprintf(os.Stderr, "sharp-benchdiff: %d unacknowledged regression(s) in trend\n", failures)
		return 1
	}
	return 0
}
