package record

// Crash-safety tests for the Logger: flush-policy visibility, append/repair
// of interrupted logs (torn trailing lines, incomplete trailing runs), the
// checkpoint truncation primitives, and the Close fd-leak fix.

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runRows builds rows for runs 1..runs with instPerRun rows per run.
func runRows(runs, instPerRun int) []Row {
	var rows []Row
	for r := 1; r <= runs; r++ {
		for i := 1; i <= instPerRun; i++ {
			base := sampleRows(1)[0]
			base.Run, base.Instance = r, i
			base.Value = float64(r) + float64(i)/10
			rows = append(rows, base)
		}
	}
	return rows
}

func writeLog(t *testing.T, path string, rows []Row, o Options) {
	t.Helper()
	w, err := CreateDurable(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushEveryMakesRowsVisibleBeforeClose(t *testing.T) {
	dir := t.TempDir()

	t.Run("flush-every-1 reaches disk per row", func(t *testing.T) {
		path := filepath.Join(dir, "flush1.csv")
		w, err := CreateDurable(path, Options{FlushEvery: 1, Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		rows := runRows(3, 1)
		for i, r := range rows {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
			// Without closing: every written row must already be on disk.
			got, err := ReadFile(path)
			if err != nil {
				t.Fatalf("after row %d: %v", i+1, err)
			}
			if len(got) != i+1 {
				t.Fatalf("after row %d: %d rows visible", i+1, len(got))
			}
		}
	})

	t.Run("buffer-until-close is the old silent-loss mode", func(t *testing.T) {
		path := filepath.Join(dir, "buffered.csv")
		w, err := CreateDurable(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.WriteAll(runRows(3, 1)); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("unflushed log has %d bytes on disk; buffering policy changed?", st.Size())
		}
	})

	t.Run("flush-every-N batches", func(t *testing.T) {
		path := filepath.Join(dir, "flushN.csv")
		w, err := CreateDurable(path, Options{FlushEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		rows := runRows(6, 1)
		for _, r := range rows[:3] {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if st, _ := os.Stat(path); st.Size() != 0 {
			t.Fatalf("flushed before the batch boundary (%d bytes)", st.Size())
		}
		if err := w.Write(rows[3]); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("%d rows visible at the batch boundary, want 4", len(got))
		}
	})
}

func TestOpenAppendContinuesLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.csv")
	first := runRows(3, 2)
	writeLog(t, path, first, Options{})

	w, rows, err := OpenAppend(path, Options{FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(first) {
		t.Fatalf("OpenAppend reports %d rows, want %d", rows, len(first))
	}
	more := runRows(5, 2)[len(first):]
	if err := w.WriteAll(more); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Row{}, first...), more...)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestOpenAppendRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.csv")
	rows := runRows(4, 1)
	writeLog(t, path, rows, Options{})

	// Simulate a crash mid-flush: append half a row.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("2026-07-04T12:00:09Z,fig6,bfs-CUDA,sim,mach"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, lastRun, torn, err := ScanFile(path); err != nil || !torn || lastRun != 4 {
		t.Fatalf("ScanFile: lastRun=%d torn=%v err=%v", lastRun, torn, err)
	}
	w, n, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("repaired log has %d rows, want %d", n, len(rows))
	}
	extra := runRows(5, 1)[4:]
	if err := w.WriteAll(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4].Run != 5 {
		t.Fatalf("after repair+append: %d rows, last run %d", len(got), got[len(got)-1].Run)
	}
}

func TestOpenAppendRejectsBadLogs(t *testing.T) {
	dir := t.TempDir()

	t.Run("legacy 11-column log", func(t *testing.T) {
		path := filepath.Join(dir, "legacy.csv")
		legacy := "timestamp,experiment,workload,backend,machine,day,run,instance,metric,value,unit\n" +
			"2026-07-04T12:00:00Z,fig6,bfs,sim,m1,1,1,1,exec_time,1.5,seconds\n"
		if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenAppend(path, Options{})
		if err == nil || !strings.Contains(err.Error(), "legacy") {
			t.Fatalf("legacy log accepted for append: %v", err)
		}
	})
	t.Run("missing header", func(t *testing.T) {
		path := filepath.Join(dir, "garbage.csv")
		if err := os.WriteFile(path, []byte("not,a,sharp,log\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenAppend(path, Options{}); err == nil {
			t.Fatal("garbage header accepted")
		}
	})
	t.Run("interior corruption is a hard error", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.csv")
		writeLog(t, path, runRows(3, 1), Options{})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		lines[2] = "xx,yy\n" // clobber an interior row
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenAppend(path, Options{})
		if err == nil || !strings.Contains(err.Error(), "corrupt row") {
			t.Fatalf("interior corruption not detected: %v", err)
		}
	})
}

func TestTruncateTrailingRun(t *testing.T) {
	dir := t.TempDir()

	t.Run("drops the final run block", func(t *testing.T) {
		path := filepath.Join(dir, "multi.csv")
		writeLog(t, path, runRows(5, 3), Options{})
		rows, dropped, err := TruncateTrailingRun(path)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 5 || rows != 4*3 {
			t.Fatalf("dropped run %d, %d rows remain", dropped, rows)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 12 || got[len(got)-1].Run != 4 {
			t.Fatalf("%d rows, last run %d", len(got), got[len(got)-1].Run)
		}
	})

	t.Run("drops torn tail together with the run", func(t *testing.T) {
		path := filepath.Join(dir, "torn-run.csv")
		writeLog(t, path, runRows(3, 2), Options{})
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("2026-07-04T12:00:09Z,fig6"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rows, dropped, err := TruncateTrailingRun(path)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 3 || rows != 4 {
			t.Fatalf("dropped %d, rows %d", dropped, rows)
		}
		if got, _ := ReadFile(path); len(got) != 4 {
			t.Fatalf("%d rows after repair", len(got))
		}
	})

	t.Run("empty log is a no-op", func(t *testing.T) {
		path := filepath.Join(dir, "empty.csv")
		writeLog(t, path, nil, Options{})
		rows, dropped, err := TruncateTrailingRun(path)
		if err != nil || rows != 0 || dropped != 0 {
			t.Fatalf("rows=%d dropped=%d err=%v", rows, dropped, err)
		}
	})
}

// TestTruncateRows cuts a CSV log to a row count: Reopen's checkpoint cut.
func TestTruncateRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.csv")
	writeLog(t, path, runRows(4, 2), Options{})
	cut := func(n int) error {
		w, _, _, err := Reopen(path, n, Options{})
		if err == nil {
			err = w.Close()
		}
		return err
	}

	if err := cut(5); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d rows, want 5", len(got))
	}
	if err := cut(10); err == nil {
		t.Fatal("truncating beyond the available rows must fail")
	}
	// Truncating to the current count is a no-op.
	if err := cut(5); err != nil {
		t.Fatal(err)
	}
	if got, _ = ReadFile(path); len(got) != 5 {
		t.Fatalf("no-op truncate changed the log: %d rows", len(got))
	}
}

// TestCSVTornTail reads, scans and repairs CSV logs whose final line never
// got its newline: an unparsable fragment of a row (readers used to fail
// on it) and a whole row missing only the newline. Readers return the
// complete rows, and the torn row too when it parses; ScanFile counts only
// the complete rows and OpenAppend cuts the tail.
func TestCSVTornTail(t *testing.T) {
	rows := runRows(4, 2)
	for _, tc := range []struct {
		name string
		tail string // appended to the log of read; "" drops its last newline
		read []Row  // what readers return
	}{
		{"fragment", "2026-07-04T12:00:09Z,fig6,bfs-CUDA,sim,mach", rows},
		{"unterminated-row", "", runRows(5, 2)[:9]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.csv")
			writeLog(t, path, tc.read, Options{})
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tail == "" {
				data = data[:len(data)-1]
			} else {
				data = append(data, tc.tail...)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			got, err := ReadFile(path)
			if err != nil || !reflect.DeepEqual(got, tc.read) {
				t.Fatalf("ReadFile = (%d rows, %v), want %d rows", len(got), err, len(tc.read))
			}
			var streamed []Row
			if err := StreamFile(path, func(b []Row) error { streamed = append(streamed, b...); return nil }); err != nil || !reflect.DeepEqual(streamed, tc.read) {
				t.Fatalf("StreamFile = (%d rows, %v), want %d rows", len(streamed), err, len(tc.read))
			}
			if n, lastRun, torn, err := ScanFile(path); n != len(rows) || lastRun != 4 || !torn || err != nil {
				t.Fatalf("ScanFile = (%d, %d, %v, %v), want (%d, 4, true, nil)", n, lastRun, torn, err, len(rows))
			}
			w, n, err := OpenAppend(path, Options{})
			if err != nil || n != len(rows) {
				t.Fatalf("OpenAppend = (%d rows, %v)", n, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadFile(path); err != nil || !reflect.DeepEqual(got, rows) {
				t.Fatalf("after repair: (%d rows, %v)", len(got), err)
			}
		})
	}
}

// TestCSVInteriorDamageFailsReads: a line that does not parse is a hard
// error on every surface unless it is the unterminated final line.
func TestCSVInteriorDamageFailsReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.csv")
	writeLog(t, path, runRows(3, 1), Options{})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "xx,yy\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "corrupt row at line 3") {
		t.Errorf("ReadFile = %v, want a corrupt row error", err)
	}
	if err := StreamFile(path, func([]Row) error { return nil }); err == nil || !strings.Contains(err.Error(), "corrupt row at line 3") {
		t.Errorf("StreamFile = %v, want a corrupt row error", err)
	}
	if _, _, _, err := ScanFile(path); err == nil || !strings.Contains(err.Error(), "corrupt row at line 3") {
		t.Errorf("ScanFile = %v, want a corrupt row error", err)
	}
}

// closeRecorder counts Close calls, standing in for the file descriptor.
type closeRecorder struct{ closed int }

func (c *closeRecorder) Close() error { c.closed++; return nil }

// TestCloseAlwaysReleasesFile is the fd-leak bugfix test: Close used to
// return early when the final flush failed, leaking the descriptor. Now the
// closer runs unconditionally and the flush error is joined with the close
// error.
func TestCloseAlwaysReleasesFile(t *testing.T) {
	rec := &closeRecorder{}
	w := &Writer{w: csv.NewWriter(&failWriter{okBytes: 0}), c: rec}
	if err := w.WriteAll(runRows(1, 1)); err != nil {
		t.Fatalf("buffered write failed early: %v", err)
	}
	err := w.Close()
	if err == nil {
		t.Fatal("flush error swallowed")
	}
	if rec.closed != 1 {
		t.Fatalf("file closed %d times, want exactly 1 (fd leak)", rec.closed)
	}
}

func TestCheckpointMetadataRoundTrip(t *testing.T) {
	m := NewMetadata("exp", mockSUT())
	if _, _, ok := m.Checkpoint(); ok {
		t.Fatal("fresh metadata claims a checkpoint")
	}
	m.SetCheckpoint(17, 34)
	run, rows, ok := m.Checkpoint()
	if !ok || run != 17 || rows != 34 {
		t.Fatalf("checkpoint: run=%d rows=%d ok=%v", run, rows, ok)
	}
	// Survives the Markdown round-trip.
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseMetadata(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	run, rows, ok = back.Checkpoint()
	if !ok || run != 17 || rows != 34 {
		t.Fatalf("after round-trip: run=%d rows=%d ok=%v", run, rows, ok)
	}
}

// TestWriteRowsAtomicLeavesNoTempOnFailure exercises the atomic writer's
// cleanup: a failed write aborts the temp file instead of leaving it (or a
// torn destination) behind.
func TestWriteRowsAtomicReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteRowsAtomic(path, runRows(2, 1)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite with different content; the old file is fully replaced.
	if err := WriteRowsAtomic(path, runRows(5, 1)); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if string(before) == string(after) {
		t.Fatal("atomic rewrite did not replace content")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d rows", len(got))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}
