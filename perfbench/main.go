// Command perfbench is the repository benchmark. One run measures four
// phases in one process, each through the public APIs of the packages it
// exercises:
//
//   - campaign: long fixed-n core.Launcher campaigns on backend.Sim, logged
//     to a binary .sharpb file with FlushEvery 1 and no fsync, once with
//     Parallel 1 and once with Parallel nproc;
//   - sweep: a full-factorial adaptive sweep.Run, cold on an empty cache and
//     then warm on the filled one;
//   - service: a service.Coordinator behind service.Handler on loopback,
//     nproc HTTP service.Workers, and one closed-loop submitting client;
//   - analysis: replay, torn-tail repair, report and comparison of a binary
//     log of at least 10^6 rows.
//
// The workload flag picks the shape of the measured distributions
// (unimodal or multimodal perfmodel benchmarks); the seed generates every
// input. With --trace 0 the run reports end-to-end metrics; with --trace 1
// it runs each phase untraced and then traced, and reports per-layer
// metrics plus the tracing overhead. The last line of standard output is
// one JSON object; see README.md.
//
// Run it from the repository root with: bash perfbench/run.sh --workload
// unimodal --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// variants are the benchmark workloads: the perfmodel benchmarks whose
// simulated distributions every phase measures.
var variants = map[string][]string{
	// One mode each: adaptive rules converge early, KDE finds one mode.
	"unimodal": {"srad", "lavaMD", "heartwall"},
	// Two to four modes: adaptive rules need more runs, reports and
	// comparisons resolve several performance states.
	"multimodal": {"hotspot", "lud", "bfs"},
}

// machines is the simulated testbed every phase draws from.
var machines = []string{"machine1", "machine2", "machine3"}

// frozen is the row timestamp of every campaign (the SHARP_CLOCK
// convention): logs of the same inputs are byte-comparable.
var frozen = time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)

func frozenClock() time.Time { return frozen }

// config is one benchmark invocation.
type config struct {
	workload string
	benches  []string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
	dir      string
	out      io.Writer // human-readable progress lines
}

// logf prints one human-readable line.
func (c config) logf(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// tally counts attempted and failed operations and keeps the reasons.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.attempted++
		return
	}
	t.fail(format, args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sheet accumulates the metrics of a run in print order.
type sheet struct {
	names   []string
	metrics map[string]metric
}

func (r *sheet) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "unimodal | multimodal")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 50, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	benches, ok := variants[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload unimodal|multimodal --seed N --seconds S --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		benches:  benches,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		out:      stdout,
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.dir = filepath.Join(wd, ".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	out, err := measure(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	correct := out.t.failed == 0
	for _, r := range out.t.reasons {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", r)
	}
	fmt.Fprintf(stdout, "failed_op_ratio = %.6g ratio (%d/%d)\n",
		float64(out.t.failed)/math.Max(1, float64(out.t.attempted)), out.t.failed, out.t.attempted)
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.t.attempted, out.t.failed, out.rep.metrics}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// outcome is what a whole run produced.
type outcome struct {
	rep sheet
	t   tally
}

// phase is one measured part of a run. unit runs one fixed-size unit of
// work and checks its outputs; finish sets the phase's metrics, scaling the
// end-to-end ones by hs, and returns its unscaled wall seconds per unit of
// work (the basis of the tracing overhead).
type phase interface {
	unit(ctx context.Context, i int) error
	finish(e2e, layer *sheet, hs hostScale) float64
	close()
}

// phaseSpec names a phase, its share of the run and its constructor.
type phaseSpec struct {
	name  string
	share float64
	min   int // units run even past the deadline
	open  func(ctx context.Context, cfg config, st *setup, sp *spans, t *tally) (phase, error)
}

var phaseSpecs = []phaseSpec{
	{"campaign", 0.10, 3, openCampaign},
	{"sweep", 0.40, 3, openSweep},
	{"service", 0.25, 2, openService},
	{"analysis", 0.25, 3, openAnalysis},
}

// slot is a phase instance being scheduled.
type slot struct {
	phaseSpec
	p      phase
	traced bool
	used   time.Duration
	units  int
	speed  []float64 // each unit's host speed factor (see hostspeed.go)
}

// setupRepeats is how often a run sets up; the median is reported.
const setupRepeats = 3

// measure sets up (setupRepeats times, reporting the median), runs the phases,
// and assembles the metrics of the requested mode.
func measure(ctx context.Context, cfg config, stdout io.Writer) (*outcome, error) {
	out := &outcome{}
	ref := newRefState()
	var setups, rawSetups []float64
	var st *setup
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		var wall, steal float64
		speed, err := speedAround(ref, func() (err error) {
			c := startClock()
			st, err = newSetup(ctx, cfg, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)))
			wall, steal = c.stop()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, wall/(steal*speed))
		rawSetups = append(rawSetups, wall)
	}
	defer st.close()
	printEnv(stdout, cfg, st)
	cfg.logf("  setup: %.3f s each (%.3f unscaled), median reported", setups, rawSetups)

	e2e, layer, raw := &sheet{}, &sheet{}, &sheet{}
	e2e.set("setup_s", "s", median(setups))
	raw.set("setup_s", "s", median(rawSetups))

	// In traced mode every phase runs twice over, untraced and traced, for
	// half its share each. Both instances must produce the same output
	// digests (checked by the phases); the ratio of their per-unit wall
	// times is the tracing overhead.
	var slots []*slot
	for _, ps := range phaseSpecs {
		modes := []bool{false}
		if cfg.trace {
			modes = []bool{false, true}
			ps.share /= 2
		}
		for _, traced := range modes {
			var sp *spans
			if traced {
				sp = newSpans()
			}
			p, err := ps.open(ctx, cfg, st, sp, &out.t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ps.name, err)
			}
			defer p.close()
			slots = append(slots, &slot{phaseSpec: ps, p: p, traced: traced})
		}
	}
	stolen0, total0 := cpuTicks()
	if err := schedule(ctx, slots, time.Duration(cfg.seconds*float64(time.Second)), ref); err != nil {
		return nil, err
	}
	// The end-to-end timings are scaled for the host's speed (hostspeed.go);
	// the share of CPU time the hypervisor gave to others says how busy it
	// was.
	if stolen1, total1 := cpuTicks(); total1 > total0 {
		cfg.logf("host steal while measuring: %.1f%% of CPU time", 100*float64(stolen1-stolen0)/float64(total1-total0))
	}
	perUnit := map[string]float64{}
	for _, s := range slots {
		hs := hostScale{speed: s.speed, raw: raw}
		switch {
		case !cfg.trace:
			cfg.logf("  %s: host speed factor %.3f (mean over units)", s.name, mean(s.speed))
			s.p.finish(e2e, &sheet{}, hs)
		case s.traced:
			layer.set("trace.overhead_ratio."+s.name, "ratio", s.p.finish(&sheet{}, layer, hs)/perUnit[s.name])
		default:
			perUnit[s.name] = s.p.finish(&sheet{}, &sheet{}, hs)
		}
	}
	e2e.set("peak_rss_mb", "MB", peakRSSMB())

	if cfg.trace {
		out.rep = *layer
	} else {
		out.rep = *e2e
	}
	fmt.Fprintln(stdout, "metrics:")
	for _, name := range out.rep.names {
		m := out.rep.metrics[name]
		if u, ok := raw.metrics[name]; ok && !cfg.trace {
			fmt.Fprintf(stdout, "  %-34s %14.6g %-7s (unscaled %.6g)\n", name, m.Value, m.Unit, u.Value)
			continue
		}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return out, nil
}

// schedule interleaves the slots' units until dur has elapsed and every
// slot has run its minimum: the next unit always goes to the slot furthest
// behind its share of the time used so far. Interleaving spreads every
// phase's units over the whole run, so a slow spell of the machine hits all
// phases alike instead of one. Every unit is metered with ref.
func schedule(ctx context.Context, slots []*slot, dur time.Duration, ref *refState) error {
	deadline := time.Now().Add(dur)
	for {
		over := !time.Now().Before(deadline)
		var next *slot
		for _, s := range slots {
			if over && s.units >= s.min {
				continue
			}
			if next == nil || s.used.Seconds()/s.share < next.used.Seconds()/next.share {
				next = s
			}
		}
		if next == nil {
			return nil
		}
		// Collect the previous unit's garbage and return it to the OS now,
		// so no unit pays for another phase's heap and peak RSS is the
		// footprint of one unit, not of whichever units' pages the
		// scavenger had not yet released.
		debug.FreeOSMemory()
		start := time.Now()
		speed, err := speedAround(ref, func() error { return next.p.unit(ctx, next.units) })
		if err != nil {
			mode := ""
			if next.traced {
				mode = " (traced)"
			}
			return fmt.Errorf("%s%s unit %d: %w", next.name, mode, next.units, err)
		}
		next.used += time.Since(start)
		next.speed = append(next.speed, speed)
		next.units++
	}
}

// printEnv prints the environment block: the machine, the toolchain, the
// flush policy and every phase's input sizes.
func printEnv(w io.Writer, cfg config, st *setup) {
	fmt.Fprintln(w, "environment:")
	fmt.Fprintf(w, "  nproc: %d\n  GOMAXPROCS: %d\n  cpu: %s\n  go: %s\n",
		cfg.nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(w, "  workload: %s (%s)\n  seed: %d\n  seconds: %g\n  trace: %v\n",
		cfg.workload, strings.Join(cfg.benches, ","), cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintln(w, "  flush policy: FlushEvery 1, no fsync (the sharp run defaults)")
	for _, line := range st.sizes(cfg) {
		fmt.Fprintf(w, "  %s\n", line)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the steal and total ticks of all CPUs from /proc/stat,
// or zeros where it cannot be read.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the process high-water resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// pctls sets name.p50, name.p99 and name.n from durations in seconds,
// scaled to unit ("us" or "ms").
func pctls(r *sheet, name, unit string, secs []float64) {
	scale := map[string]float64{"us": 1e6, "ms": 1e3}[unit]
	r.set(name+".p50", unit, median(secs)*scale)
	r.set(name+".p99", unit, quantile(secs, 0.99)*scale)
	r.set(name+".n", "count", float64(len(secs)))
}

// mix derives a sub-seed from the run seed and a stream label.
func mix(seed uint64, label string) uint64 {
	h := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, c := range label {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
