// Package cache is a content-addressed store of completed campaign results.
//
// SHARP campaigns are deterministic functions of their configuration: a
// seeded simulated backend, a stopping rule, a warm-up count and a factor
// combination always reproduce the same tidy-data rows (the property the
// resume differentials assert). That makes completed cells cacheable by
// content address: the key is a hash of everything the outcome depends on
// (backend config, rule, seed, warm-ups, factors), the value is the cell's
// complete tidy-data log. A sweep, figure regeneration, or service campaign
// that re-requests an already-measured cell replays the cached rows through
// core.Launcher.ReplayLog — zero backend calls, bit-identical Result.
//
// On-disk layout (under the cache directory):
//
//	<key>.sharpb       the cell's rows (binary columnar log, atomic write)
//	<key>.json         entry metadata — written last, so it is the commit
//	                   point: an entry exists iff its .json does
//	counters.json      persisted hit/miss/store counters (advisory),
//	                   written once per store lifetime, by Close
//
// Crash safety mirrors the record package: both entry files are written
// via fsx (temp + sync + rename), and the .json commit point is ordered
// after the rows, so a crash mid-Put leaves at worst an orphaned rows file
// that the next Put overwrites and Prune sweeps. Deletion inverts the
// order: Prune removes the .json first, so a crash mid-prune never leaves
// a committed entry whose rows are gone. A Put is one atomic file write
// plus the commit point: the rows file has no sidecar. Older versions wrote
// a <key>.sharpb.idx index beside each rows file; Prune's orphan sweep
// deletes those and Stats does not count them.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sharp/internal/fsx"
	"sharp/internal/obs"
	"sharp/internal/record"
)

// Key derives a content address from a kind tag (a versioned namespace such
// as "sweep-cell/v1" — bump it when the cached semantics change) and the
// parts the result depends on. Parts are length-prefixed before hashing, so
// ("ab","c") and ("a","bc") address different entries.
func Key(kind string, parts ...string) string {
	h := sha256.New()
	var n [8]byte
	feed := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	feed(kind)
	for _, p := range parts {
		feed(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Meta describes one committed cache entry.
type Meta struct {
	// Kind is the namespace tag the entry was stored under.
	Kind string `json:"kind"`
	// Experiment is the experiment name of the cached campaign.
	Experiment string `json:"experiment"`
	// Rows counts the cached tidy-data rows.
	Rows int `json:"rows"`
	// Created is the store time (UTC).
	Created time.Time `json:"created"`
}

// Counters are the persisted lookup statistics.
type Counters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stores uint64 `json:"stores"`
}

// Stats summarizes a cache directory.
type Stats struct {
	Entries  int
	Bytes    int64
	Oldest   time.Time // zero when empty
	Counters Counters
}

// Store is a cache directory handle. The zero value is not usable; call
// Open, and Close when done so the lookup counters persist. Methods are
// safe for concurrent use within one process (the service coordinator and
// parallel sweeps share a Store across goroutines).
type Store struct {
	// Tracer, when set, receives cache.hit / cache.miss / cache.store
	// events.
	Tracer obs.Tracer
	// Registry, when set, counts lookups into
	// sharp_cache_requests_total{result="hit"|"miss"|"store"}.
	Registry *obs.Registry
	// Clock supplies entry timestamps (defaults to time.Now; tests pin it).
	Clock func() time.Time

	dir      string
	mu       sync.Mutex
	counters Counters
	// dirty marks counters bumped since Open or the last Close.
	dirty bool
}

const countersFile = "counters.json"

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{dir: dir, Clock: time.Now}
	if data, err := os.ReadFile(filepath.Join(dir, countersFile)); err == nil {
		// A corrupt counters file resets the statistics; it never fails the
		// cache open, the counters are advisory.
		_ = json.Unmarshal(data, &s.counters)
	}
	return s, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) rowsPath(key string) string { return filepath.Join(s.dir, key+record.BinaryExt) }
func (s *Store) metaPath(key string) string { return filepath.Join(s.dir, key+".json") }

// Get looks up a committed entry, returning its rows and metadata, or
// (nil, nil, nil) on a miss. experiment labels the lookup in events. An
// entry whose rows file is missing or unreadable (a torn prune or a damaged
// disk) is self-healed: the commit point is removed and the lookup is a
// miss, so the caller re-measures instead of failing.
func (s *Store) Get(key, experiment string) ([]record.Row, *Meta, error) {
	data, err := os.ReadFile(s.metaPath(key))
	if errors.Is(err, os.ErrNotExist) {
		s.count("miss", obs.EventCacheMiss, map[string]any{"key": key, "experiment": experiment})
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("cache: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("cache: entry %s: %w", key, err)
	}
	rows, err := record.ReadFile(s.rowsPath(key))
	if err != nil || len(rows) != m.Rows {
		// Orphaned or damaged entry: demote to a miss and drop the commit
		// point so the next Put rebuilds it cleanly.
		os.Remove(s.metaPath(key))
		os.Remove(s.rowsPath(key))
		s.count("miss", obs.EventCacheMiss, map[string]any{"key": key, "experiment": experiment})
		return nil, nil, nil
	}
	s.count("hit", obs.EventCacheHit, map[string]any{"key": key, "experiment": experiment, "rows": len(rows)})
	return rows, &m, nil
}

// Put commits rows under key. The rows file lands first (atomically); the
// metadata commit point last.
func (s *Store) Put(key, kind, experiment string, rows []record.Row) error {
	if err := record.WriteRowsAtomicFormat(s.rowsPath(key), rows, record.FormatBinary); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	m := Meta{Kind: kind, Experiment: experiment, Rows: len(rows), Created: s.Clock().UTC()}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := fsx.WriteFile(s.metaPath(key), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	s.count("store", obs.EventCacheStore, map[string]any{"key": key, "experiment": experiment, "rows": len(rows)})
	return nil
}

// Stats walks the cache directory.
func (s *Store) Stats() (Stats, error) {
	entries, err := s.list()
	if err != nil {
		return Stats{}, err
	}
	s.mu.Lock()
	st := Stats{Counters: s.counters}
	s.mu.Unlock()
	for _, e := range entries {
		st.Entries++
		if st.Oldest.IsZero() || e.meta.Created.Before(st.Oldest) {
			st.Oldest = e.meta.Created
		}
		for _, p := range []string{s.metaPath(e.key), s.rowsPath(e.key)} {
			if fi, err := os.Stat(p); err == nil {
				st.Bytes += fi.Size()
			}
		}
	}
	return st, nil
}

// Prune removes committed entries created before cutoff and sweeps orphaned
// rows files left by interrupted Puts or prunes, and the index files older
// versions wrote beside rows files. For each entry the
// metadata commit point is deleted first, so a crash mid-prune leaves an
// orphan (invisible to Get), never a committed entry without rows.
func (s *Store) Prune(cutoff time.Time) (removed int, err error) {
	entries, err := s.list()
	if err != nil {
		return 0, err
	}
	committed := map[string]bool{}
	for _, e := range entries {
		committed[e.key] = true
		if !e.meta.Created.Before(cutoff) {
			continue
		}
		if err := os.Remove(s.metaPath(e.key)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, fmt.Errorf("cache: %w", err)
		}
		os.Remove(s.rowsPath(e.key))
		committed[e.key] = false
		removed++
	}
	// Sweep orphans: rows files with no commit point, and every leftover
	// index file.
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return removed, fmt.Errorf("cache: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		key, rowsFile := strings.CutSuffix(name, record.BinaryExt)
		if rowsFile && !committed[key] || strings.HasSuffix(name, record.BinaryExt+".idx") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return removed, nil
}

// Counters returns the lookup statistics: those persisted when the store
// was opened plus this store's own lookups.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

type listedEntry struct {
	key  string
	meta Meta
}

// list returns the committed entries (those with a readable .json).
func (s *Store) list() ([]listedEntry, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	var out []listedEntry
	for _, de := range names {
		name := de.Name()
		if name == countersFile {
			continue
		}
		key, ok := strings.CutSuffix(name, ".json")
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		var m Meta
		if err := json.Unmarshal(data, &m); err != nil {
			continue
		}
		out = append(out, listedEntry{key: key, meta: m})
	}
	return out, nil
}

// Close persists the lookup counters if any lookup or store bumped them.
// counters.json is replaced through a temp file and a rename, so a reader
// sees the old or the new counters, never a torn file. Neither the file nor
// the directory is synced: the counters are advisory (Open resets them when
// the file is missing or corrupt). Writing them once here, not on every Get
// and Put, keeps a file rewrite under s.mu off the lookup path, where
// parallel sweep cells would queue on it. The Store stays usable; a later
// Close writes any further bumps.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	data, err := json.Marshal(&s.counters)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	f, err := os.CreateTemp(s.dir, countersFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, err = f.Write(append(data, '\n'))
	err = errors.Join(err, f.Chmod(0o644), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(s.dir, countersFile))
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("cache: %w", err)
	}
	s.dirty = false
	return nil
}

// count bumps one counter in memory and emits the event/metric.
func (s *Store) count(result, event string, fields map[string]any) {
	s.mu.Lock()
	switch result {
	case "hit":
		s.counters.Hits++
	case "miss":
		s.counters.Misses++
	case "store":
		s.counters.Stores++
	}
	s.dirty = true
	s.mu.Unlock()
	if s.Tracer != nil {
		s.Tracer.Emit(event, fields)
	}
	if s.Registry != nil {
		s.Registry.Counter("sharp_cache_requests_total",
			"Result cache lookups and stores by outcome.", "result", result).Inc()
	}
}
