package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sharp/internal/record"
)

// TestRecreateRoundTripMatrix: with the clock pinned, `sharp run --csv L
// --meta m.md` followed by `sharp recreate --csv L' m.md` logs the same
// file, for every rule kind, sequential and parallel campaigns, chaos off
// and on, and CSV and binary logs. A binary pair is compared after
// conversion to CSV: recreate writes its log in one pass, so its frame
// layout differs from a streamed run's. Retries under fault injection are
// covered sequentially only: a parallel campaign's retries draw at arrival
// time, so two runs of it need not log the same bytes.
func TestRecreateRoundTripMatrix(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2025-01-02T00:00:00Z")
	dir := t.TempDir()
	for _, rule := range [][]string{{"ks"}, {"self"}, {"meta"}, {"fixed", "--threshold", "150"}} {
		for _, mode := range [][]string{
			{"--parallel", "1"},
			{"--parallel", "1", "--chaos", "0.2", "--retries", "3", "--retry-backoff", "1us"},
			{"--parallel", "4"},
			{"--parallel", "4", "--chaos", "0.2"},
		} {
			for _, ext := range []string{".csv", ".sharpb"} {
				name := strings.Join(append(append([]string{rule[0]}, mode...), ext), "")
				run := append([]string{"run", "--workload", "bfs", "--seed", "7", "--quiet", "--rule"}, rule...)
				roundTrip(t, filepath.Join(dir, name), ext, append(run, mode...), nil)
			}
		}
	}
	// A self-similarity rule's splits are seeded apart from the campaign
	// seed; a recreate that reseeded them logged 311 of this run's 361 lines.
	roundTrip(t, filepath.Join(dir, "hotspot-self"), ".csv", []string{"run", "--workload", "hotspot",
		"--rule", "self", "--seed", "7", "--parallel", "1", "--quiet"}, nil)
}

// TestRecreateKernelRoundTrip: a real kernel's timings differ between runs,
// so a recreated kernel campaign matches its original in every column but
// value.
func TestRecreateKernelRoundTrip(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2025-01-02T00:00:00Z")
	run := []string{"run", "--workload", "matmul", "--backend", "kernel", "--seed", "7",
		"--rule", "fixed", "--threshold", "5", "--parallel", "1", "--quiet"}
	roundTrip(t, filepath.Join(t.TempDir(), "kernel"), ".csv", run, func(r *record.Row) { r.Value = 0 })
}

// roundTrip runs args logging to base+ext with metadata, recreates the
// campaign from the metadata, and compares the two logs row by row after
// mask (nil compares whole files).
func roundTrip(t *testing.T, base, ext string, args []string, mask func(*record.Row)) {
	t.Helper()
	orig, rec, meta := base+ext, base+".recreated"+ext, base+".md"
	if err := runCLI(t, append(args, "--csv", orig, "--meta", meta)...); err != nil {
		t.Fatalf("%s: run: %v", base, err)
	}
	if err := runCLI(t, "recreate", "--csv", rec, meta); err != nil {
		t.Fatalf("%s: recreate: %v", base, err)
	}
	if ext == ".csv" && mask == nil {
		a, _ := os.ReadFile(orig)
		b, _ := os.ReadFile(rec)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: recreated log differs (%d vs %d bytes)", base, len(b), len(a))
		}
		return
	}
	a, errA := record.ReadFile(orig)
	b, errB := record.ReadFile(rec)
	if errA != nil || errB != nil {
		t.Fatalf("%s: reading logs: %v, %v", base, errA, errB)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: recreated %d rows, original %d", base, len(b), len(a))
	}
	for i := range a {
		if mask != nil {
			mask(&a[i])
			mask(&b[i])
		}
		if a[i] != b[i] {
			t.Fatalf("%s: row %d: recreated %s, original %s", base, i+1, rowString(b[i]), rowString(a[i]))
		}
	}
}

func rowString(r record.Row) string {
	return fmt.Sprintf("%s %d/%d %s=%v %s", r.Timestamp.Format(time.RFC3339), r.Run, r.Instance, r.Metric, r.Value, r.Status)
}
