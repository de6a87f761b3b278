package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sharp/internal/cache"
	"sharp/internal/record"
)

func smallDesign() Design {
	return Design{
		Name:      "test-sweep",
		Workloads: []string{"bfs", "srad"},
		Machines:  []string{"machine1", "machine3"},
		Days:      []int{1, 2},
		RuleName:  "fixed",
		Threshold: 40,
		Seed:      5,
	}
}

func TestRunFullFactorial(t *testing.T) {
	out, err := Run(context.Background(), smallDesign())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(out.Cells))
	}
	seen := map[string]bool{}
	for _, c := range out.Cells {
		if seen[c.Key()] {
			t.Errorf("duplicate cell %s", c.Key())
		}
		seen[c.Key()] = true
		if c.Result.Runs != 40 {
			t.Errorf("%s: runs = %d", c.Key(), c.Result.Runs)
		}
	}
}

func TestEffectOfMachine(t *testing.T) {
	out, err := Run(context.Background(), smallDesign())
	if err != nil {
		t.Fatal(err)
	}
	eff, err := out.EffectOf("machine")
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Levels) != 2 {
		t.Fatalf("levels = %v", eff.Levels)
	}
	// Machine 3 (faster CPU) must show lower means for CPU benchmarks.
	var m1, m3 float64
	for _, l := range eff.Levels {
		switch l.Level {
		case "machine1":
			m1 = l.Mean
		case "machine3":
			m3 = l.Mean
		}
	}
	if m3 >= m1 {
		t.Errorf("machine3 mean %.3f not faster than machine1 %.3f", m3, m1)
	}
	if _, err := out.EffectOf("bogus"); err == nil {
		t.Error("unknown factor accepted")
	}
}

func TestSaveCSVAndRender(t *testing.T) {
	d := smallDesign()
	d.Workloads = []string{"bfs"}
	d.Days = []int{1}
	out, err := Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.csv")
	if err := out.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	rows, err := record.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(out.Rows()) {
		t.Fatalf("csv rows = %d", len(rows))
	}
	rendered := out.Render()
	for _, want := range []string{"# Sweep: test-sweep", "machine3", "| workload |"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestDesignValidation(t *testing.T) {
	if _, err := Run(context.Background(), Design{Machines: []string{"machine1"}}); err == nil {
		t.Error("no workloads accepted")
	}
	if _, err := Run(context.Background(), Design{Workloads: []string{"bfs"}}); err == nil {
		t.Error("no machines accepted")
	}
	if _, err := Run(context.Background(), Design{
		Workloads: []string{"bfs"}, Machines: []string{"ghost"},
	}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := Run(context.Background(), Design{
		Workloads: []string{"bfs"}, Machines: []string{"machine1"}, RuleName: "ghost",
	}); err == nil {
		t.Error("unknown rule accepted")
	}
}

// TestParallelSweepMatchesSequential checks that a parallel sweep yields the
// same cells — order, samples and stop reasons — as a sequential one.
func TestParallelSweepMatchesSequential(t *testing.T) {
	seqDesign := smallDesign()
	parDesign := smallDesign()
	parDesign.Parallel = 4
	seq, err := Run(context.Background(), seqDesign)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), parDesign)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell count diverged: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if a.Key() != b.Key() {
			t.Fatalf("cell %d order diverged: %s vs %s", i, a.Key(), b.Key())
		}
		if a.Result.StopReason != b.Result.StopReason {
			t.Fatalf("%s: StopReason diverged: %q vs %q", a.Key(), a.Result.StopReason, b.Result.StopReason)
		}
		if len(a.Result.Samples) != len(b.Result.Samples) {
			t.Fatalf("%s: sample count diverged", a.Key())
		}
		for j := range a.Result.Samples {
			if a.Result.Samples[j] != b.Result.Samples[j] {
				t.Fatalf("%s: sample %d diverged", a.Key(), j)
			}
		}
	}
	if seq.Render() != par.Render() {
		t.Fatal("rendered sweep diverged between sequential and parallel runs")
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	d := smallDesign()
	d.CacheDir = t.TempDir()

	first, err := Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(d.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	c := store.Counters()
	if int(c.Misses) != len(first.Cells) || int(c.Stores) != len(first.Cells) || c.Hits != 0 {
		t.Fatalf("cold-run counters = %+v, want %d misses and stores", c, len(first.Cells))
	}

	second, err := Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	c = cacheCounters(t, d.CacheDir)
	if int(c.Hits) != len(first.Cells) {
		t.Fatalf("warm-run counters = %+v, want %d hits (execution skipped)", c, len(first.Cells))
	}
	if int(c.Stores) != len(first.Cells) {
		t.Fatalf("warm run stored %d entries, want no new stores beyond %d", c.Stores, len(first.Cells))
	}

	// The replayed outcome is bit-identical: the combined tidy CSV matches
	// byte for byte.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	if err := first.SaveCSV(a); err != nil {
		t.Fatal(err)
	}
	if err := second.SaveCSV(b); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Fatal("cached sweep CSV differs from the measured one")
	}
	for i, cell := range second.Cells {
		if cell.Result.StopReason != first.Cells[i].Result.StopReason ||
			cell.Result.Runs != first.Cells[i].Result.Runs ||
			!reflect.DeepEqual(cell.Result.Samples, first.Cells[i].Result.Samples) {
			t.Fatalf("cell %s: replayed result differs", cell.Key())
		}
	}
}

func TestCacheKeyChangeForcesMiss(t *testing.T) {
	d := smallDesign()
	d.Workloads, d.Machines, d.Days = []string{"bfs"}, []string{"machine1"}, []int{1}
	d.CacheDir = t.TempDir()
	if _, err := Run(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	d.Seed++ // any key ingredient change must address a different entry
	if _, err := Run(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	c := cacheCounters(t, d.CacheDir)
	if c.Hits != 0 || c.Misses != 2 || c.Stores != 2 {
		t.Fatalf("counters = %+v, want 0 hits / 2 misses / 2 stores", c)
	}
}

func cacheCounters(t *testing.T, dir string) cache.Counters {
	t.Helper()
	s, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s.Counters()
}
