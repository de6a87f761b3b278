package backend

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"sharp/internal/metrics"
)

// Process executes user-provided binaries as local OS processes — the
// paper's "black-box programs" execution class. Wall-clock time becomes
// exec_time; additional metrics are scraped from the program's stdout:
// any line of the form
//
//	SHARP_METRIC <name> <value>
//
// is collected, which is the no-code-changes metric mechanism of §IV-a
// (programs or wrapper scripts print metrics; SHARP never instruments the
// process).
type Process struct {
	// Path is the binary to execute.
	Path string
	// BaseArgs are prepended to every request's Args.
	BaseArgs []string
	// Collectors wrap the command (e.g. with /usr/bin/time -v) and extract
	// additional metrics from its combined output (§IV-d's YAML-defined
	// metric collection). Wraps are applied in order, outermost first.
	Collectors []metrics.Collector
}

// NewProcess returns a process backend for the given binary.
func NewProcess(path string, baseArgs ...string) *Process {
	return &Process{Path: path, BaseArgs: baseArgs}
}

// command assembles the full argv including collector wraps.
func (b *Process) command(args []string) (string, []string) {
	full := make([]string, 0, len(b.BaseArgs)+len(args)+4)
	for _, c := range b.Collectors {
		full = append(full, c.Wrap...)
	}
	full = append(full, b.Path)
	full = append(full, b.BaseArgs...)
	full = append(full, args...)
	return full[0], full[1:]
}

// Name implements Backend.
func (b *Process) Name() string { return "process" }

// Invoke implements Backend.
func (b *Process) Invoke(ctx context.Context, req Request) ([]Invocation, error) {
	conc := req.Concurrency
	if conc < 1 {
		conc = 1
	}
	out := make([]Invocation, conc)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			// Recover panics (e.g. from a misbehaving metric collector) into
			// the instance error instead of crashing the launcher.
			defer func() {
				if r := recover(); r != nil {
					out[inst] = Invocation{
						Instance: inst + 1,
						Metrics:  map[string]float64{},
						Worker:   "local",
						Err:      fmt.Errorf("backend: process instance panic: %v", r),
					}
				}
			}()
			ictx := ctx
			var cancel context.CancelFunc
			if req.Timeout > 0 {
				ictx, cancel = context.WithTimeout(ctx, req.Timeout)
				defer cancel()
			}
			name, args := b.command(req.Args)
			cmd := exec.CommandContext(ictx, name, args...)
			// After a timeout kill, don't wait forever for orphaned
			// grandchildren holding the output pipe open.
			cmd.WaitDelay = time.Second
			var output bytes.Buffer
			cmd.Stdout = &output
			cmd.Stderr = &output // collectors like time -v write to stderr
			start := time.Now()
			err := cmd.Run()
			elapsed := time.Since(start).Seconds()
			if err == nil && ictx.Err() != nil {
				err = ictx.Err() // timed out but the kill was racy
			}
			text := output.String()
			collected := ParseMetrics(bytes.NewBufferString(text))
			for _, c := range b.Collectors {
				for k, v := range c.Parse(text) {
					collected[k] = v
				}
			}
			if _, has := collected[MetricExecTime]; !has {
				collected[MetricExecTime] = elapsed
			}
			out[inst] = Invocation{
				Instance: inst + 1,
				Metrics:  collected,
				Worker:   "local",
				Err:      err,
			}
		}(i)
	}
	wg.Wait()
	return out, nil
}

// Close implements Backend.
func (b *Process) Close() error { return nil }

// ParseMetrics scans program output for SHARP_METRIC lines.
func ParseMetrics(r *bytes.Buffer) map[string]float64 {
	metrics := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "SHARP_METRIC ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
			metrics[fields[1]] = v
		}
	}
	return metrics
}
