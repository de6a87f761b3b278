package record

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// binPath returns a .sharpb path in a fresh temp dir.
func binPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

// writeBinary writes rows to a .sharpb log via the public Writer facade.
func writeBinary(t *testing.T, path string, rows []Row, o Options) {
	t.Helper()
	w, err := CreateDurable(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if w.bin == nil {
		t.Fatalf("CreateDurable(%q) did not pick the binary format", path)
	}
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	// Exercise several block shapes: empty, one row, mid-block, exactly one
	// full block, and multi-block.
	for _, n := range []int{0, 1, 25, binBlockRows, binBlockRows + 7} {
		rows := sampleRows(n)
		if n > 2 {
			// Make the sample exercise failure rows and odd values too.
			rows[1].Status, rows[1].Attempt, rows[1].Error = StatusError, 3, "oom: device 0"
			rows[2].Value = -0.0
			rows[2].Timestamp = rows[2].Timestamp.Add(123456789 * time.Nanosecond)
		}
		path := binPath(t, "rt.sharpb")
		writeBinary(t, path, rows, Options{})
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d rows", n, len(got))
		}
		for i := range rows {
			if !reflect.DeepEqual(rows[i], got[i]) {
				t.Fatalf("n=%d row %d: got %+v want %+v", n, i, got[i], rows[i])
			}
		}
		gotRows, lastRun, torn, err := ScanFile(path)
		if err != nil || torn {
			t.Fatalf("n=%d: scan rows=%d torn=%v err=%v", n, gotRows, torn, err)
		}
		wantLast := 0
		if n > 0 {
			wantLast = rows[n-1].Run
		}
		if gotRows != n || lastRun != wantLast {
			t.Fatalf("n=%d: scan got (%d,%d) want (%d,%d)", n, gotRows, lastRun, n, wantLast)
		}
	}
}

// TestBinaryLogHasNoSidecar: a log is one file. Nothing that writes or
// repairs a single-file log leaves another file beside it.
func TestBinaryLogHasNoSidecar(t *testing.T) {
	path := binPath(t, "alone.sharpb")
	all := runRows(10, 3)
	writeBinary(t, path, all[:20], Options{FlushEvery: 1})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	chop(t, path, st.Size()-7)
	if _, _, err := TruncateTrailingRun(path); err != nil {
		t.Fatal(err)
	}
	w, kept, _, err := Reopen(path, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(all[len(kept):]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteRowsAtomic(path, all); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("directory holds %d entries, want the log alone", len(entries))
	}
}

func TestBinaryOpenAppendContinues(t *testing.T) {
	path := binPath(t, "append.sharpb")
	all := runRows(8, 2)
	writeBinary(t, path, all[:10], Options{FlushEvery: 1})
	w, rows, err := OpenAppend(path, Options{FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("OpenAppend rows = %d, want 10", rows)
	}
	if err := w.WriteAll(all[10:]); err != nil {
		t.Fatal(err)
	}
	if got := w.Rows(); got != len(all) {
		t.Fatalf("Rows() = %d, want %d", got, len(all))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, got) {
		t.Fatalf("appended log differs: got %d rows want %d", len(got), len(all))
	}

	// With FlushEvery=1 every block carries one row, so a log written in two
	// sessions is byte-identical to one written in a single session.
	oneShot := binPath(t, "oneshot.sharpb")
	writeBinary(t, oneShot, all, Options{FlushEvery: 1})
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(oneShot)
	if string(a) != string(b) {
		t.Fatal("two-session log is not byte-identical to one-session log")
	}
}

// TestBinaryTruncateRows cuts a binary log to a checkpoint through Reopen,
// on block boundaries and inside blocks.
func TestBinaryTruncateRows(t *testing.T) {
	all := runRows(6, 4) // 24 rows
	for _, tc := range []struct {
		name string
		opts Options
		n    int
	}{
		{"block-boundary", Options{FlushEvery: 4}, 8},
		{"mid-block", Options{FlushEvery: 0}, 13},
		{"mid-block-flushed", Options{FlushEvery: 5}, 7},
		{"to-zero", Options{FlushEvery: 3}, 0},
		{"no-op-all", Options{FlushEvery: 2}, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := binPath(t, "trunc.sharpb")
			writeBinary(t, path, all, tc.opts)
			w, kept, _, err := Reopen(path, tc.n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if len(kept) != tc.n || (tc.n > 0 && !reflect.DeepEqual(all[:tc.n], kept)) {
				t.Fatalf("Reopen kept %d rows, want %d", len(kept), tc.n)
			}
			got, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.n || (tc.n > 0 && !reflect.DeepEqual(all[:tc.n], got)) {
				t.Fatalf("got %d rows, want %d", len(got), tc.n)
			}
			// The log must remain appendable after the cut.
			w, rows, err := OpenAppend(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rows != tc.n {
				t.Fatalf("OpenAppend after truncate: rows=%d want %d", rows, tc.n)
			}
			w.Close()
		})
	}

	t.Run("too-many", func(t *testing.T) {
		path := binPath(t, "trunc.sharpb")
		writeBinary(t, path, all, Options{})
		if _, _, _, err := Reopen(path, 25, Options{}); err == nil {
			t.Fatal("Reopen past EOF should error")
		}
	})
}

func TestBinaryTruncateTrailingRun(t *testing.T) {
	path := binPath(t, "run.sharpb")
	all := runRows(5, 3)
	writeBinary(t, path, all, Options{FlushEvery: 2})
	rows, dropped, err := TruncateTrailingRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 12 || dropped != 5 {
		t.Fatalf("TruncateTrailingRun = (%d,%d), want (12,5)", rows, dropped)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all[:12], got) {
		t.Fatalf("retained rows differ")
	}
}

func TestBinaryFlushVisibility(t *testing.T) {
	path := binPath(t, "flush.sharpb")
	w, err := CreateDurable(path, Options{FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rows := sampleRows(3)
	for i, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		n, _, torn, err := ScanFile(path)
		if err != nil || torn {
			t.Fatalf("scan after row %d: n=%d torn=%v err=%v", i, n, torn, err)
		}
		if n != i+1 {
			t.Fatalf("after row %d: %d rows visible, want %d", i, n, i+1)
		}
	}
}

func TestWriteRowsAtomicBinary(t *testing.T) {
	path := binPath(t, "atomic.sharpb")
	rows := runRows(4, 2)
	if err := WriteRowsAtomic(path, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, got) {
		t.Fatal("atomic binary write round-trip mismatch")
	}
	n, lastRun, torn, err := ScanFile(path)
	if err != nil || torn || n != 8 || lastRun != 4 {
		t.Fatalf("scan = (%d,%d,%v,%v)", n, lastRun, torn, err)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("unexpected leftover file %q", e.Name())
		}
	}
}

// TestWriteRowsAtomicBinaryMatchesStreamed holds the one-shot writer, whose
// column buffers are sized to the rows it is given, to the bytes of a
// streamed log of the same rows: blocks are cut at binBlockRows either way.
func TestWriteRowsAtomicBinaryMatchesStreamed(t *testing.T) {
	for _, n := range []int{0, 1, 25, binBlockRows - 1, binBlockRows, binBlockRows + 7, 2*binBlockRows + 1} {
		rows := runRows(n, 1)
		atomic, streamed := binPath(t, "atomic.sharpb"), binPath(t, "streamed.sharpb")
		if err := WriteRowsAtomic(atomic, rows); err != nil {
			t.Fatal(err)
		}
		writeBinary(t, streamed, rows, Options{})
		a, err := os.ReadFile(atomic)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(streamed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%d rows: atomic log (%d bytes) differs from the streamed one (%d bytes)", n, len(a), len(b))
		}
	}
}

// TestWriteRowsAtomicBinarySmallSet bounds the memory a one-shot write of a
// short set (a cache entry) allocates: its column buffers hold its rows, not
// a full block of binBlockRows (about 278 KB).
func TestWriteRowsAtomicBinarySmallSet(t *testing.T) {
	const writes = 10
	rows := runRows(25, 1)
	path := binPath(t, "small.sharpb")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		if err := WriteRowsAtomic(path, rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perWrite := (after.TotalAlloc - before.TotalAlloc) / writes; perWrite > 128<<10 {
		t.Errorf("writing %d rows allocates %d bytes, want at most %d", len(rows), perWrite, 128<<10)
	}
}

func TestConvertRoundTripFormats(t *testing.T) {
	// csv -> binary -> csv must reproduce the original CSV byte-for-byte.
	rows := runRows(7, 3)
	rows[4].Status, rows[4].Attempt, rows[4].Error = StatusError, 2, "worker lost"
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "a.csv")
	binP := filepath.Join(dir, "a.sharpb")
	csv2 := filepath.Join(dir, "b.csv")
	if err := WriteRowsAtomic(csvPath, rows); err != nil {
		t.Fatal(err)
	}
	r1, err := ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRowsAtomic(binP, r1); err != nil {
		t.Fatal(err)
	}
	r2, err := ReadFile(binP)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("rows changed across csv->binary")
	}
	if err := WriteRowsAtomic(csv2, r2); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(csvPath)
	b, _ := os.ReadFile(csv2)
	if string(a) != string(b) {
		t.Fatal("re-exported CSV is not byte-identical")
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"": FormatAuto, "auto": FormatAuto, "csv": FormatCSV,
		"binary": FormatBinary, "sharpb": FormatBinary, "BIN": FormatBinary,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("parquet"); err == nil {
		t.Fatal("ParseFormat should reject unknown formats")
	}
	if FormatForPath("x/y.sharpb") != FormatBinary || FormatForPath("x/y.csv") != FormatCSV {
		t.Fatal("FormatForPath extension dispatch broken")
	}
}
