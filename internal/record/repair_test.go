package record

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// blockLog encodes rows as the bytes of a binary log whose data blocks hold
// per rows each: the shape a writer flushing every per rows leaves behind.
func blockLog(t testing.TB, rows []Row, per int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := newBinWriterCore(bw)
	if _, err := bw.WriteString(binMagic); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := w.add(&rows[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%per == 0 {
			if err := w.emit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.emit(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRuns returns sample rows carrying the given run indices.
func withRuns(runs ...int) []Row {
	rows := sampleRows(len(runs))
	for i, r := range runs {
		rows[i].Run = r
	}
	return rows
}

// dataBlocks returns the data blocks of a well-formed log's bytes.
func dataBlocks(t *testing.T, data []byte) []refBlock {
	t.Helper()
	sc, _, err := scanReference(bytes.NewReader(data), nil, false, nil)
	if err != nil || sc.torn {
		t.Fatalf("reference scan of the clean log = (torn=%v, %v)", sc.torn, err)
	}
	return sc.blocks
}

// reseal recomputes the CRC of the block whose frame starts at off, so a
// planted content fault passes the checksum and must be caught by the
// content checks.
func reseal(data []byte, off int64) {
	le := binary.LittleEndian
	frame := data[off : off+binFrameLen]
	payload := data[off+binFrameLen : off+binFrameLen+int64(le.Uint32(frame[13:]))]
	le.PutUint32(frame[17:], crc32.Update(crc32.Update(0, binCRC, frame[:17]), binCRC, payload))
}

// TestTornRepairCheckedBlocks holds the repair scan to the decode path on
// every repair surface: ScanFile, OpenAppend, TruncateTrailingRun and
// TruncateRows must return what the scanReference-based oracles return and
// leave the same log and sidecar-index bytes. The logs carry blocks whose
// CRC is valid but whose content is not (planted as an interior block, as
// the final block, or as both), and run tails that the frame headers alone
// cannot settle. Every log runs with and without mmap, serially and on four
// workers.
func TestTornRepairCheckedBlocks(t *testing.T) {
	type plant func(data []byte, b refBlock) // edits block b in place
	payloadAt := func(b refBlock) int64 { return b.off + binFrameLen }
	faults := []struct {
		name  string
		plant plant
	}{
		{"nanoseconds", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(8*b.rows+4):], 1e9)
		}},
		{"dict-id", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(36*b.rows):], 99)
		}},
		// A bad id in a later column but an earlier row: the error names
		// the id met first column by column (the experiment column's 999).
		{"dict-id-column-order", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(40*b.rows):], 998)
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(36*b.rows+4*(b.rows-1)):], 999)
		}},
		{"dict-id-last-column", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(64*b.rows):], 99)
		}},
		{"nanoseconds-before-dict-id", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(36*b.rows):], 99)
			binary.LittleEndian.PutUint32(data[payloadAt(b)+int64(12*b.rows-4):], 2e9)
		}},
		{"first-run", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[b.off+5:], 77)
		}},
		{"last-run", func(data []byte, b refBlock) {
			binary.LittleEndian.PutUint32(data[b.off+9:], 77)
		}},
	}
	type logCase struct {
		name string
		data []byte
	}
	var logs []logCase
	base := withRuns(1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 6)
	for _, f := range faults {
		// "both" plants the fault twice: the interior one, lower, decides.
		for _, where := range []string{"interior", "final", "both"} {
			data := blockLog(t, base, 4)
			blocks := dataBlocks(t, data)
			var at []refBlock
			if where != "final" {
				at = append(at, blocks[1])
			}
			if where != "interior" {
				at = append(at, blocks[len(blocks)-1])
			}
			for _, b := range at {
				f.plant(data, b)
				reseal(data, b.off)
			}
			logs = append(logs, logCase{f.name + "/" + where, data})
		}
	}
	tails := []struct {
		name string
		runs []int
	}{
		{"return-in-block", []int{1, 1, 2, 2, 3, 3, 3, 5, 5, 6, 5, 5}}, // frame 5..5 holds 5,6,5
		{"return-at-end", []int{5, 5, 5, 5, 5, 6, 5}},
		// The trailing run of 5s reaches back into a block framed 5..5
		// that holds a 6: only its run column shows where the run starts.
		{"return-behind-run", []int{1, 1, 2, 2, 5, 6, 5, 5, 5, 5, 5, 5, 5, 5}},
		{"spans-blocks", []int{1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}},
		{"ends-on-boundary", []int{1, 1, 1, 1, 2, 2, 2, 2}},
		{"all-zero", []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"zero-after-runs", []int{3, 3, 3, 3, 0, 0, 0, 0, 0}},
		{"one-run", []int{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}},
	}
	for _, tc := range tails {
		data := blockLog(t, withRuns(tc.runs...), 4)
		blocks := dataBlocks(t, data)
		last := blocks[len(blocks)-1]
		logs = append(logs,
			logCase{tc.name + "/clean", data},
			logCase{tc.name + "/torn-payload", data[:len(data)-7]},
			logCase{tc.name + "/torn-frame", data[:last.off+10]})
	}

	// same fails unless the two logs (and their sidecar indexes) hold the
	// same bytes.
	same := func(t *testing.T, op, got, want string) {
		t.Helper()
		for _, suffix := range []string{"", binIndexSuffix} {
			g, gerr := os.ReadFile(got + suffix)
			w, werr := os.ReadFile(want + suffix)
			if errors.Is(gerr, os.ErrNotExist) != errors.Is(werr, os.ErrNotExist) || !bytes.Equal(g, w) {
				t.Errorf("%s: %q differs from the decode path's (%d vs %d bytes, %v vs %v)", op, suffix, len(g), len(w), gerr, werr)
			}
		}
	}
	for _, nommap := range []string{"", "1"} {
		for _, p := range []int{1, 4} {
			for _, lc := range logs {
				t.Run(fmt.Sprintf("nommap=%s/p=%d/%s", nommap, p, lc.name), func(t *testing.T) {
					t.Setenv(NoMmapEnv, nommap)
					setParallelism(t, p)
					dir := t.TempDir()
					n := 0
					fresh := func(name string) string {
						n++
						path := filepath.Join(dir, fmt.Sprintf("%s-%d.sharpb", name, n))
						if err := os.WriteFile(path, lc.data, 0o644); err != nil {
							t.Fatal(err)
						}
						return path
					}
					ref, _, werr := scanReference(bytes.NewReader(lc.data), nil, false, nil)

					rows, lastRun, torn, err := ScanFile(fresh("scan"))
					if fmt.Sprint(err) != fmt.Sprint(werr) {
						t.Fatalf("ScanFile error %v, decode path %v", err, werr)
					}
					if err == nil && (rows != ref.rows || lastRun != ref.lastRun || torn != ref.torn) {
						t.Errorf("ScanFile = (%d, %d, %v), decode path (%d, %d, %v)", rows, lastRun, torn, ref.rows, ref.lastRun, ref.torn)
					}

					got, want := fresh("append"), fresh("append-ref")
					w, gotRows, gerr := OpenAppend(got, Options{})
					if gerr == nil {
						if w.bin.lastRun != ref.lastRun || w.bin.runStartRows != ref.runStartRows {
							t.Errorf("OpenAppend bookkeeping (%d, %d), decode path (%d, %d)", w.bin.lastRun, w.bin.runStartRows, ref.lastRun, ref.runStartRows)
						}
						gerr = w.Close()
					}
					wantRows, werr2 := openAppendReference(want)
					if fmt.Sprint(gerr) != fmt.Sprint(werr2) || gerr == nil && gotRows != wantRows {
						t.Errorf("OpenAppend = (%d, %v), decode path (%d, %v)", gotRows, gerr, wantRows, werr2)
					}
					same(t, "OpenAppend", got, want)

					got, want = fresh("trailing"), fresh("trailing-ref")
					gr, gd, gerr := TruncateTrailingRun(got)
					wr, wd, werr2 := truncateTrailingRunReference(want)
					if fmt.Sprint(gerr) != fmt.Sprint(werr2) || gr != wr || gd != wd {
						t.Errorf("TruncateTrailingRun = (%d, %d, %v), decode path (%d, %d, %v)", gr, gd, gerr, wr, wd, werr2)
					}
					same(t, "TruncateTrailingRun", got, want)

					for _, cut := range []int{0, 1, 2, 4, 5, ref.rows / 2, ref.rows - 1, ref.rows, ref.rows + 1} {
						if cut < 0 {
							continue
						}
						got, want = fresh("rows"), fresh("rows-ref")
						gerr, werr2 := TruncateRows(got, cut), truncateRowsReference(want, cut)
						if fmt.Sprint(gerr) != fmt.Sprint(werr2) {
							t.Errorf("TruncateRows(%d) = %v, decode path %v", cut, gerr, werr2)
						}
						same(t, fmt.Sprintf("TruncateRows(%d)", cut), got, want)
					}
				})
			}
		}
	}
}
