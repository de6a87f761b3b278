package sweep

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sharp/internal/cache"
	"sharp/internal/obs"
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

// TestPinnedClockCacheBytes holds a sweep under a pinned clock to writing
// the same cache directory twice: the clock stamps the cache entries too,
// not only the rows.
func TestPinnedClockCacheBytes(t *testing.T) {
	var trees [2]map[string][]byte
	for i := range trees {
		d := smallDesign()
		d.CacheDir = t.TempDir()
		d.SetClock(func() time.Time { return time.Unix(1735776000, 0).UTC() })
		if _, err := Run(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		trees[i] = map[string][]byte{}
		err := filepath.WalkDir(d.CacheDir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			rel, _ := filepath.Rel(d.CacheDir, path)
			trees[i][rel] = data
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(trees[0]) < 2 {
		t.Fatalf("cache holds %d files, want entries", len(trees[0]))
	}
	if len(trees[0]) != len(trees[1]) {
		t.Fatalf("the two sweeps wrote %d and %d cache files", len(trees[0]), len(trees[1]))
	}
	for name, data := range trees[0] {
		if !bytes.Equal(data, trees[1][name]) {
			t.Errorf("%s differs between two pinned-clock sweeps", name)
		}
	}
}

// eventCounter counts trace events by type; sweep cells emit concurrently.
type eventCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *eventCounter) Emit(typ string, _ map[string]any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[typ]++
}

// TestTracedSweepEmitsCacheEvents holds sweep.Run to handing its tracer and
// registry to the cache store: a cold sweep misses and stores every cell, a
// warm one hits every cell, and the lookup counter follows.
func TestTracedSweepEmitsCacheEvents(t *testing.T) {
	d := smallDesign()
	d.CacheDir = t.TempDir()
	reg := obs.NewRegistry()
	d.Registry = reg
	for _, pass := range []struct {
		name string
		want map[string]int
	}{
		{"cold", map[string]int{obs.EventCacheMiss: 8, obs.EventCacheStore: 8, obs.EventCacheHit: 0}},
		{"warm", map[string]int{obs.EventCacheMiss: 0, obs.EventCacheStore: 0, obs.EventCacheHit: 8}},
	} {
		tr := &eventCounter{n: map[string]int{}}
		d.Tracer = tr
		out, err := Run(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Cells) != 8 {
			t.Fatalf("%s: %d cells, want 8", pass.name, len(out.Cells))
		}
		for typ, want := range pass.want {
			if got := tr.n[typ]; got != want {
				t.Errorf("%s sweep: %d %s events, want %d", pass.name, got, typ, want)
			}
		}
	}
	hits := reg.Counter("sharp_cache_requests_total", "", "result", "hit").Value()
	misses := reg.Counter("sharp_cache_requests_total", "", "result", "miss").Value()
	if hits != 8 || misses != 8 {
		t.Errorf("sharp_cache_requests_total: %v hits, %v misses, want 8 and 8", hits, misses)
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
