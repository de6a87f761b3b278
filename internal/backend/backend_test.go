package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sharp/internal/config"
	"sharp/internal/kernels"
	"sharp/internal/machine"
	"sharp/internal/metrics"
)

func TestInProcessRunsKernel(t *testing.T) {
	b := NewInProcess()
	b.Register("bfs", func(ctx context.Context, seed uint64) (map[string]float64, error) {
		k := kernels.NewBFS(1024, 4, seed)
		res, err := k.Run()
		if err != nil {
			return nil, err
		}
		return map[string]float64{"checksum": res.Checksum}, nil
	})
	invs, err := b.Invoke(context.Background(), Request{Workload: "bfs", Run: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 1 {
		t.Fatalf("instances = %d", len(invs))
	}
	if invs[0].ExecTime() <= 0 {
		t.Error("exec_time not measured")
	}
	if invs[0].Metrics["checksum"] == 0 {
		t.Error("custom metric lost")
	}
}

func TestInProcessUnknownWorkload(t *testing.T) {
	b := NewInProcess()
	if _, err := b.Invoke(context.Background(), Request{Workload: "nope"}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("err = %v", err)
	}
}

func TestInProcessConcurrency(t *testing.T) {
	b := NewInProcess()
	b.Register("sleepy", func(ctx context.Context, seed uint64) (map[string]float64, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	})
	start := time.Now()
	invs, err := b.Invoke(context.Background(), Request{Workload: "sleepy", Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 8 {
		t.Fatalf("instances = %d", len(invs))
	}
	// Parallel: total should be far below 8 * 20ms.
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Errorf("concurrency did not parallelize: %v", elapsed)
	}
	seen := map[int]bool{}
	for _, inv := range invs {
		if seen[inv.Instance] {
			t.Error("duplicate instance index")
		}
		seen[inv.Instance] = true
	}
}

func TestInProcessTimeout(t *testing.T) {
	b := NewInProcess()
	b.Register("stuck", func(ctx context.Context, seed uint64) (map[string]float64, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, nil
		}
	})
	invs, err := b.Invoke(context.Background(), Request{Workload: "stuck", Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if invs[0].Err == nil {
		t.Error("timeout not propagated")
	}
}

func TestSimBackendDistribution(t *testing.T) {
	m, _ := machine.ByName("machine1")
	b := NewSim(m, 42)
	var times []float64
	for run := 1; run <= 200; run++ {
		invs, err := b.Invoke(context.Background(), Request{Workload: "hotspot", Run: run, Day: 1})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, invs[0].ExecTime())
	}
	// hotspot base is 3.1 s on machine1.
	mean := 0.0
	for _, v := range times {
		mean += v
	}
	mean /= float64(len(times))
	if mean < 2.5 || mean > 4.0 {
		t.Errorf("sim hotspot mean %.2f implausible", mean)
	}
	if invs, _ := b.Invoke(context.Background(), Request{Workload: "hotspot", Run: 201, Day: 1}); invs[0].Worker != "machine1" {
		t.Errorf("worker = %q", invs[0].Worker)
	}
}

func TestSimBackendPhases(t *testing.T) {
	m, _ := machine.ByName("machine1")
	b := NewSim(m, 1)
	invs, err := b.Invoke(context.Background(), Request{Workload: "leukocyte", Run: 1})
	if err != nil {
		t.Fatal(err)
	}
	mtr := invs[0].Metrics
	det, trk := mtr["detection_time"], mtr["tracking_time"]
	if det <= 0 || trk <= 0 {
		t.Fatalf("phase metrics missing: %v", mtr)
	}
	if diff := mtr[MetricExecTime] - det - trk; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("exec_time != sum of phases: %v", mtr)
	}
}

// TestSimInvokeAllocs bounds the Sim's per-run garbage: a single-metric
// Invoke allocates the returned invocations and one metrics map per
// instance (a small map is two objects), nothing else, and skipping runs
// on resume draws values without allocating.
func TestSimInvokeAllocs(t *testing.T) {
	m, _ := machine.ByName("machine1")
	ctx := context.Background()
	for _, conc := range []int{1, 2, 4} {
		b := NewSim(m, 3)
		run := 0
		got := testing.AllocsPerRun(200, func() {
			run++
			if _, err := b.Invoke(ctx, Request{Workload: "bfs", Run: run, Day: 1, Concurrency: conc}); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(1 + 2*conc); got > limit {
			t.Errorf("conc %d: Invoke makes %.1f allocations, want at most %.0f", conc, got, limit)
		}
	}
	for _, wl := range []string{"bfs", "leukocyte"} {
		b := NewSim(m, 3)
		got := testing.AllocsPerRun(50, func() {
			if err := b.SkipRuns(wl, 1, 2, 10); err != nil {
				t.Fatal(err)
			}
		})
		if got > 1 {
			t.Errorf("%s: SkipRuns of 10 runs makes %.1f allocations, want at most 1", wl, got)
		}
	}
}

// TestSimSkipMatchesInvoke holds SkipRuns to the draws Invoke would have
// consumed, phase-decomposed streams included.
func TestSimSkipMatchesInvoke(t *testing.T) {
	m, _ := machine.ByName("machine1")
	ctx := context.Background()
	for _, wl := range []string{"bfs", "leukocyte"} {
		live, skipped := NewSim(m, 9), NewSim(m, 9)
		var want []Invocation
		for run := 1; run <= 7; run++ {
			invs, err := live.Invoke(ctx, Request{Workload: wl, Run: run, Day: 2, Concurrency: 3})
			if err != nil {
				t.Fatal(err)
			}
			want = invs
		}
		if err := skipped.SkipRuns(wl, 2, 3, 6); err != nil {
			t.Fatal(err)
		}
		got, err := skipped.Invoke(ctx, Request{Workload: wl, Run: 7, Day: 2, Concurrency: 3})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: run 7 after SkipRuns = %v, want %v", wl, got, want)
		}
	}
}

func TestSimBackendUnknownAndCUDAErrors(t *testing.T) {
	m2, _ := machine.ByName("machine2")
	b := NewSim(m2, 1)
	if _, err := b.Invoke(context.Background(), Request{Workload: "nope"}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload err = %v", err)
	}
	if _, err := b.Invoke(context.Background(), Request{Workload: "bfs-CUDA"}); err == nil {
		t.Fatal("CUDA on GPU-less machine2 accepted")
	}
}

func TestParseMetrics(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "some program output")
	fmt.Fprintln(&buf, "SHARP_METRIC exec_time 1.25")
	fmt.Fprintln(&buf, "SHARP_METRIC max_rss 4096")
	fmt.Fprintln(&buf, "SHARP_METRIC malformed")
	fmt.Fprintln(&buf, "SHARP_METRIC bad notanumber")
	m := ParseMetrics(&buf)
	if m["exec_time"] != 1.25 || m["max_rss"] != 4096 {
		t.Fatalf("metrics = %v", m)
	}
	if len(m) != 2 {
		t.Fatalf("malformed lines accepted: %v", m)
	}
}

func TestProcessBackend(t *testing.T) {
	// Use /bin/sh to emit a metric; skip if unavailable.
	b := NewProcess("/bin/sh", "-c")
	invs, err := b.Invoke(context.Background(), Request{
		Workload: "echo",
		Args:     []string{`echo "SHARP_METRIC custom 7.5"`},
	})
	if err != nil {
		t.Skipf("no /bin/sh: %v", err)
	}
	if invs[0].Err != nil {
		t.Skipf("shell failed: %v", invs[0].Err)
	}
	if invs[0].Metrics["custom"] != 7.5 {
		t.Errorf("metrics = %v", invs[0].Metrics)
	}
	if invs[0].ExecTime() <= 0 {
		t.Error("wall time not recorded")
	}
}

func TestProcessBackendWithCollector(t *testing.T) {
	// Simulate a collector-wrapped run: a fake "time -v"-style tool that
	// echoes its wrapped command's output plus resource lines on stderr.
	b := NewProcess("-c", `echo "SHARP_METRIC custom 2.5"; echo "Maximum resident set size (kbytes): 2,048" 1>&2`)
	b.Path = "/bin/sh"
	b.BaseArgs = []string{"-c", `echo "SHARP_METRIC custom 2.5"; echo "Maximum resident set size (kbytes): 2,048" 1>&2`}
	b.Collectors = []metrics.Collector{metrics.TimeVerbose()}
	// Remove the wrap (no /usr/bin/time in minimal containers): parse-only.
	b.Collectors[0].Wrap = nil
	invs, err := b.Invoke(context.Background(), Request{Workload: "w"})
	if err != nil {
		t.Skipf("shell unavailable: %v", err)
	}
	if invs[0].Err != nil {
		t.Skipf("shell failed: %v", invs[0].Err)
	}
	m := invs[0].Metrics
	if m["custom"] != 2.5 {
		t.Errorf("stdout metric lost: %v", m)
	}
	if m["max_rss_bytes"] != 2048*1024 {
		t.Errorf("collector metric = %v", m["max_rss_bytes"])
	}
}

func TestProcessCommandAssembly(t *testing.T) {
	b := NewProcess("/bin/bench", "--base")
	b.Collectors = []metrics.Collector{{Name: "w", Wrap: []string{"/usr/bin/time", "-v"},
		Patterns: []metrics.Pattern{{Metric: "m", Regex: "(x)"}}}}
	name, args := b.command([]string{"--extra"})
	if name != "/usr/bin/time" {
		t.Fatalf("name = %q", name)
	}
	want := []string{"-v", "/bin/bench", "--base", "--extra"}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("args = %v, want %v", args, want)
		}
	}
}

func TestBackendFromConfig(t *testing.T) {
	src := `
backend:
  type: process
  command: /bin/echo
  args: [hello]
  collectors:
    - name: time-v
    - name: inline
      patterns:
        - metric: custom
          regex: "val=([0-9]+)"
`
	doc, err := config.Parse([]byte(src), ".yaml")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromConfig(doc, "backend")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := b.(*Process)
	if !ok || p.Path != "/bin/echo" || len(p.Collectors) != 2 {
		t.Fatalf("backend = %+v", b)
	}
	if p.Collectors[0].Name != "time-v" || p.Collectors[1].Name != "inline" {
		t.Fatalf("collectors = %+v", p.Collectors)
	}

	simDoc, err := config.Parse([]byte(`{"backend": {"type": "sim", "machine": "machine3", "seed": 9}}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := FromConfig(simDoc, "backend")
	if err != nil {
		t.Fatal(err)
	}
	if sim, ok := sb.(*Sim); !ok || sim.Machine.Name != "machine3" || sim.Seed != 9 {
		t.Fatalf("sim backend = %+v", sb)
	}
}

func TestBackendFromConfigErrors(t *testing.T) {
	cases := []string{
		`{"backend": {}}`,
		`{"backend": {"type": "nope"}}`,
		`{"backend": {"type": "process"}}`,
		`{"backend": {"type": "sim", "machine": "ghost"}}`,
		`{"backend": {"type": "process", "command": "x", "collectors": [{"name": "ghost"}]}}`,
		`{"backend": {"type": "process", "command": "x", "collectors": [{"name": "c", "patterns": [{"metric": "m", "regex": "("}]}]}}`,
	}
	for _, src := range cases {
		doc, err := config.Parse([]byte(src), ".json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromConfig(doc, "backend"); err == nil {
			t.Errorf("no error for %s", src)
		}
	}
}
