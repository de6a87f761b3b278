package cache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sharp/internal/obs"
	"sharp/internal/record"
)

func testRows(n, run int) []record.Row {
	rows := make([]record.Row, n)
	ts := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	for i := range rows {
		rows[i] = record.Row{
			Timestamp:  ts.Add(time.Duration(i) * time.Second),
			Experiment: "exp", Workload: "hotspot", Backend: "sim",
			Machine: "m1", Day: 1, Run: run + i, Instance: 1, Attempt: 1,
			Metric: "exec_time", Value: float64(i) + 0.5, Unit: "seconds",
			Status: record.StatusOK,
		}
	}
	return rows
}

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key("k", "ab", "c") == Key("k", "a", "bc") {
		t.Fatal("concatenation collision")
	}
	if Key("k", "a") == Key("k2", "a") {
		t.Fatal("kind not mixed into the key")
	}
	if Key("k", "a") != Key("k", "a") {
		t.Fatal("key not deterministic")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Clock = func() time.Time { return time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC) }
	key := Key("test/v1", "cell-a")
	rows := testRows(10, 1)

	if got, m, err := s.Get(key, "exp"); err != nil || got != nil || m != nil {
		t.Fatalf("Get on empty cache = (%v, %v, %v)", got, m, err)
	}
	if err := s.Put(key, "test/v1", "exp", rows); err != nil {
		t.Fatal(err)
	}
	got, m, err := s.Get(key, "exp")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, got) {
		t.Fatal("cached rows differ")
	}
	if m.Kind != "test/v1" || m.Experiment != "exp" || m.Rows != 10 {
		t.Fatalf("meta = %+v", m)
	}
	// A different key misses.
	if got, _, _ := s.Get(Key("test/v1", "cell-b"), "exp"); got != nil {
		t.Fatal("wrong key hit")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 2 || c.Stores != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestCountersSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(Key("k", "a"), "k", "exp", testRows(3, 1))
	s.Get(Key("k", "a"), "exp")
	s.Get(Key("k", "zzz"), "exp")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s2.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Stores != 1 {
		t.Fatalf("reopened counters = %+v", c)
	}
}

// TestCountersWrittenOnlyOnClose is the regression test for the per-lookup
// counters rewrite: Get and Put bump the counters in memory only, and
// counters.json changes once, on Close.
func TestCountersWrittenOnlyOnClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, countersFile)
	s, _ := Open(dir)
	s.Put(Key("k", "a"), "k", "exp", testRows(3, 1))
	s.Get(Key("k", "a"), "exp")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("counters.json exists before Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, _ := Open(dir)
	s2.Get(Key("k", "a"), "exp")
	s2.Get(Key("k", "zzz"), "exp")
	s2.Put(Key("k", "b"), "k", "exp", testRows(2, 1))
	if now, _ := os.ReadFile(path); string(now) != string(first) {
		t.Fatalf("lookups rewrote counters.json before Close: %q -> %q", first, now)
	}
	if c := s2.Counters(); c.Hits != 2 || c.Misses != 1 || c.Stores != 2 {
		t.Fatalf("in-memory counters = %+v", c)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, _ := Open(dir)
	if c := s3.Counters(); c.Hits != 2 || c.Misses != 1 || c.Stores != 2 {
		t.Fatalf("counters after Close = %+v", c)
	}
}

func TestOrphanSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key("k", "a")
	s.Put(key, "k", "exp", testRows(5, 1))
	// Damage: rows file vanishes (torn prune / disk repair) but the commit
	// point survives.
	if err := os.Remove(s.rowsPath(key)); err != nil {
		t.Fatal(err)
	}
	got, m, err := s.Get(key, "exp")
	if err != nil || got != nil || m != nil {
		t.Fatalf("damaged entry should miss, got (%v, %v, %v)", got, m, err)
	}
	if _, err := os.Stat(s.metaPath(key)); !os.IsNotExist(err) {
		t.Fatal("self-heal left the commit point behind")
	}
	// The entry can be rebuilt.
	if err := s.Put(key, "k", "exp", testRows(5, 1)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get(key, "exp"); len(got) != 5 {
		t.Fatal("rebuilt entry does not hit")
	}
}

func TestPruneDeletesCommitPointFirst(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	s.Clock = func() time.Time { return now }
	old, fresh := Key("k", "old"), Key("k", "fresh")
	s.Put(old, "k", "exp", testRows(4, 1))
	now = now.Add(48 * time.Hour)
	s.Put(fresh, "k", "exp", testRows(4, 1))

	removed, err := s.Prune(now.Add(-24 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if _, err := os.Stat(s.metaPath(old)); !os.IsNotExist(err) {
		t.Fatal("old commit point survived prune")
	}
	if _, err := os.Stat(s.rowsPath(old)); !os.IsNotExist(err) {
		t.Fatal("old rows survived prune")
	}
	if got, _, _ := s.Get(fresh, "exp"); len(got) != 4 {
		t.Fatal("fresh entry lost")
	}

	// A crash between the two deletes leaves an orphaned rows file: Get
	// misses it and the next Prune sweeps it.
	orphan := Key("k", "orphan")
	s.Put(orphan, "k", "exp", testRows(2, 1))
	if err := os.Remove(s.metaPath(orphan)); err != nil { // crash after commit-point delete
		t.Fatal(err)
	}
	if got, _, _ := s.Get(orphan, "exp"); got != nil {
		t.Fatal("orphan visible to Get")
	}
	if _, err := s.Prune(now.Add(-365 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.rowsPath(orphan)); !os.IsNotExist(err) {
		t.Fatal("orphaned rows not swept")
	}
}

// TestPruneSweepsStaleIndexFiles plants the <key>.sharpb.idx files older
// versions wrote beside rows files, for a live entry and for a pruned one:
// Stats counts neither, a Get still hits, and Prune deletes both while the
// live entry's rows stay.
func TestPruneSweepsStaleIndexFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	s.Clock = func() time.Time { return now }
	old, live := Key("k", "old"), Key("k", "live")
	s.Put(old, "k", "exp", testRows(4, 1))
	now = now.Add(48 * time.Hour)
	s.Put(live, "k", "exp", testRows(4, 1))
	before, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{old, live} {
		if err := os.WriteFile(s.rowsPath(key)+".idx", make([]byte, 52), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := s.Stats(); err != nil || st.Bytes != before.Bytes {
		t.Fatalf("Stats with stale index files = (%d bytes, %v), want %d bytes", st.Bytes, err, before.Bytes)
	}
	if got, _, _ := s.Get(live, "exp"); len(got) != 4 {
		t.Fatal("a stale index file broke a hit")
	}
	if _, err := s.Prune(now.Add(-24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{old, live} {
		if _, err := os.Stat(s.rowsPath(key) + ".idx"); !os.IsNotExist(err) {
			t.Fatalf("stale index of %s survived Prune: %v", key, err)
		}
	}
	if got, _, _ := s.Get(live, "exp"); len(got) != 4 {
		t.Fatal("Prune lost the live entry")
	}
}

// tracerFunc adapts a function to obs.Tracer for event capture.
type tracerFunc func(string, map[string]any)

func (f tracerFunc) Emit(typ string, fields map[string]any) { f(typ, fields) }

func TestStatsAndObservability(t *testing.T) {
	s, _ := Open(t.TempDir())
	created := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	s.Clock = func() time.Time { return created }
	reg := obs.NewRegistry()
	var events []string
	s.Registry = reg
	s.Tracer = tracerFunc(func(typ string, fields map[string]any) {
		events = append(events, typ)
	})

	key := Key("k", "a")
	s.Put(key, "k", "exp", testRows(6, 1))
	s.Get(key, "exp")
	s.Get(Key("k", "nope"), "exp")

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Bytes <= 0 || !st.Oldest.Equal(created) {
		t.Fatalf("stats = %+v", st)
	}
	if st.Counters.Hits != 1 || st.Counters.Misses != 1 || st.Counters.Stores != 1 {
		t.Fatalf("stats counters = %+v", st.Counters)
	}
	want := []string{obs.EventCacheStore, obs.EventCacheHit, obs.EventCacheMiss}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for result, n := range map[string]float64{"hit": 1, "miss": 1, "store": 1} {
		if v := reg.Counter("sharp_cache_requests_total", "", "result", result).Value(); v != n {
			t.Fatalf("sharp_cache_requests_total{result=%q} = %g, want %g", result, v, n)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	// Open creates nested directories.
	dir := filepath.Join(t.TempDir(), "a", "b")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatal("cache dir not created")
	}
}
