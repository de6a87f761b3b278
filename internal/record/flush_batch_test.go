package record

// Batched-write tests: WriteAll must cut blocks exactly where per-row Write
// cuts them, so a campaign handing over each run's rows in one call leaves
// the same bytes on disk as one writing row by row, while pushing them to
// the OS once per call.

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// unevenRuns builds rows for runs 1..runs where run r holds r%5+1 rows, an
// error row every third run, and fresh strings now and then, so runs cross
// FlushEvery boundaries at varying offsets and dict blocks appear mid-log.
func unevenRuns(runs int) [][]Row {
	out := make([][]Row, runs)
	for r := 1; r <= runs; r++ {
		for i := 1; i <= r%5+1; i++ {
			row := sampleRows(1)[0]
			row.Run, row.Instance = r, i
			row.Value = float64(r) + float64(i)/10
			row.Machine = fmt.Sprintf("machine%d", r%7)
			if r%3 == 0 && i == 1 {
				row.Metric, row.Status, row.Error = MetricError, StatusError, fmt.Sprintf("boom %d", r)
			}
			out[r-1] = append(out[r-1], row)
		}
	}
	return out
}

// treeBytes snapshots every file under dir (log, manifest and segments) by
// relative path.
func treeBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTree reports the first difference between two snapshots, or "".
func sameTree(a, b map[string][]byte) string {
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			return name + " missing"
		}
		if !bytes.Equal(data, other) {
			return fmt.Sprintf("%s differs (%d vs %d bytes)", name, len(data), len(other))
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			return name + " extra"
		}
	}
	return ""
}

// TestFlushBatchMatchesPerRowBytes is the byte-identity matrix: per-row
// Write against one WriteAll per run, and against one WriteAll of the whole
// log (rows crossing many FlushEvery boundaries and segment rolls inside one
// call), over CSV, binary and segmented logs, every FlushEvery and Sync.
// After each run the bytes on disk must match too: for binary logs exactly,
// for CSV as a prefix of what the batched writer pushed (a CSV push carries
// the rows past the last boundary along; the final bytes are identical).
func TestFlushBatchMatchesPerRowBytes(t *testing.T) {
	runs := unevenRuns(23)
	var all []Row
	for _, rr := range runs {
		all = append(all, rr...)
	}
	layouts := []struct {
		name string
		ext  string
		seg  int
	}{{"csv", ".csv", 0}, {"binary", BinaryExt, 0}, {"segmented", BinaryExt, 9}}
	for _, lay := range layouts {
		for _, every := range []int{0, 1, 2, 3, 5} {
			for _, sync := range []bool{false, true} {
				name := fmt.Sprintf("%s/every%d/sync%v", lay.name, every, sync)
				t.Run(name, func(t *testing.T) {
					o := Options{FlushEvery: every, Sync: sync, SegmentRows: lay.seg}
					base := t.TempDir()
					open := func(variant string) (*Writer, string) {
						dir := filepath.Join(base, variant)
						if err := os.Mkdir(dir, 0o755); err != nil {
							t.Fatal(err)
						}
						w, err := CreateDurable(filepath.Join(dir, "log"+lay.ext), o)
						if err != nil {
							t.Fatal(err)
						}
						return w, dir
					}
					perRow, rowDir := open("row")
					perRun, runDir := open("run")
					for k, rr := range runs {
						for _, r := range rr {
							if err := perRow.Write(r); err != nil {
								t.Fatal(err)
							}
						}
						if err := perRun.WriteAll(rr); err != nil {
							t.Fatal(err)
						}
						got, want := treeBytes(t, runDir), treeBytes(t, rowDir)
						if lay.name == "csv" {
							g, w := got["log.csv"], want["log.csv"]
							if !bytes.HasPrefix(g, w) {
								t.Fatalf("after run %d: per-row bytes on disk (%d) are not a prefix of batched (%d)", k+1, len(w), len(g))
							}
						} else if diff := sameTree(got, want); diff != "" {
							t.Fatalf("after run %d: on-disk state: %s", k+1, diff)
						}
					}
					whole, wholeDir := open("whole")
					if err := whole.WriteAll(all); err != nil {
						t.Fatal(err)
					}
					for _, w := range []*Writer{perRow, perRun, whole} {
						if w.Rows() != len(all) {
							t.Fatalf("Rows() = %d, want %d", w.Rows(), len(all))
						}
						if err := w.Close(); err != nil {
							t.Fatal(err)
						}
					}
					want := treeBytes(t, rowDir)
					if diff := sameTree(treeBytes(t, runDir), want); diff != "" {
						t.Errorf("WriteAll per run vs per-row Write: %s", diff)
					}
					if diff := sameTree(treeBytes(t, wholeDir), want); diff != "" {
						t.Errorf("one WriteAll vs per-row Write: %s", diff)
					}
				})
			}
		}
	}
}

// countingWriter counts the writes it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestFlushBatchOneWritePerCall checks the point of WriteAll: at FlushEvery
// 1 a run's rows reach the underlying writer in one write, where per-row
// Write pushes each row on its own.
func TestFlushBatchOneWritePerCall(t *testing.T) {
	runs := unevenRuns(6)
	for _, format := range []string{"csv", "binary"} {
		t.Run(format, func(t *testing.T) {
			newWriter := func(cw *countingWriter) *Writer {
				if format == "csv" {
					w := NewWriter(cw)
					w.opts.FlushEvery = 1
					return w
				}
				bw := newBinWriterCore(bufio.NewWriterSize(cw, 1<<16), binBlockRows)
				return &Writer{bin: bw, opts: Options{FlushEvery: 1}}
			}
			var batched, perRow countingWriter
			wb, wr := newWriter(&batched), newWriter(&perRow)
			rows := 0
			for k, rr := range runs {
				before := batched.writes
				if err := wb.WriteAll(rr); err != nil {
					t.Fatal(err)
				}
				if got := batched.writes - before; got != 1 {
					t.Errorf("run %d (%d rows): WriteAll made %d writes, want 1", k+1, len(rr), got)
				}
				for _, r := range rr {
					if err := wr.Write(r); err != nil {
						t.Fatal(err)
					}
				}
				rows += len(rr)
			}
			if perRow.writes != rows {
				t.Errorf("per-row Write made %d writes for %d rows", perRow.writes, rows)
			}
			if !bytes.Equal(batched.Bytes(), perRow.Bytes()) {
				t.Error("batched and per-row streams differ")
			}
			before := batched.writes
			if err := wb.WriteAll(nil); err != nil {
				t.Fatal(err)
			}
			if batched.writes != before {
				t.Error("an empty WriteAll wrote")
			}
		})
	}
}

// TestFlushBatchErrorPushesWhatIsDue checks durability on a mid-batch
// error: the rows past the last FlushEvery boundary before the failing row
// must already be pushed, as per-row writes would have pushed them.
func TestFlushBatchErrorPushesWhatIsDue(t *testing.T) {
	rows := runRows(5, 1)
	rows[4].Run = 1 << 40 // out of the binary range: add fails on it
	path := filepath.Join(t.TempDir(), "log"+BinaryExt)
	w, err := CreateDurable(path, Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteAll(rows); err == nil {
		t.Fatal("WriteAll accepted an out-of-range row")
	}
	if w.Rows() != 4 {
		t.Fatalf("Rows() = %d after the failing row, want 4", w.Rows())
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d rows on disk after the error, want the 3 already due", len(got))
	}
}
