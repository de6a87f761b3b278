package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// setParallelism overrides the global decode parallelism for one test,
// restoring the previous value afterwards.
func setParallelism(t *testing.T, n int) {
	t.Helper()
	prev := readParallelism.Load()
	readParallelism.Store(int64(n))
	t.Cleanup(func() { readParallelism.Store(prev) })
}

// readReference reads a binary log through scanReference, the oracle every
// production read path must match.
func readReference(t *testing.T, path string) ([]Row, bool, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, rows, err := scanReference(f, nil, true, nil)
	return rows, sc.torn, err
}

// eachSource runs fn once per byte source of the frame walk: the mapped file
// and the os.ReadFile copy that replaces it when mmap is unavailable.
func eachSource(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, src := range []string{"mmap", "nommap"} {
		t.Run(src, func(t *testing.T) {
			if src == "mmap" && !mmapSupported {
				t.Skip("no mmap on this platform")
			}
			if src == "nommap" {
				t.Setenv(NoMmapEnv, "1")
			} else {
				t.Setenv(NoMmapEnv, "0")
			}
			fn(t)
		})
	}
}

// sameRead reports a mismatch between the production read of a log and the
// reference scan of it: rows, torn verdict, and error string.
func sameRead(t *testing.T, got []Row, gotTorn bool, gerr error, want []Row, wantTorn bool, werr error) {
	t.Helper()
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("error mismatch:\n  production: %v\n  reference:  %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if wantTorn != gotTorn || !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
		t.Fatalf("production (%d rows, torn=%v) differs from reference (%d rows, torn=%v)",
			len(got), gotTorn, len(want), wantTorn)
	}
}

// TestMappedReadParity proves the frame walk returns bit-identical rows to
// the reference scanner on clean logs, across block shapes, byte sources,
// and parallelism.
func TestMappedReadParity(t *testing.T) {
	for _, n := range []int{0, 1, 25, binBlockRows, 3*binBlockRows + 17} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				setParallelism(t, p)
				path := binPath(t, "parity.sharpb")
				writeBinary(t, path, sampleRows(n), Options{})
				want, wantTorn, werr := readReference(t, path)
				eachSource(t, func(t *testing.T) {
					sc, got, gerr := readLogFile(path, nil)
					sameRead(t, got, sc.torn, gerr, want, wantTorn, werr)
				})
			})
		}
	}
}

// TestMappedDamageParity drives the frame walk and the reference scanner
// over the same damaged logs: identical rows, torn verdicts, and error
// strings, for the slab read and the stream alike.
func TestMappedDamageParity(t *testing.T) {
	all := runRows(8, 2)
	for _, tc := range []struct {
		name string
		hurt func(t *testing.T, path string, offs []int64)
	}{
		{"clean", func(t *testing.T, path string, offs []int64) {}},
		{"torn-frame", func(t *testing.T, path string, offs []int64) {
			chop(t, path, offs[len(offs)-1]+7)
		}},
		{"torn-payload", func(t *testing.T, path string, offs []int64) {
			st, _ := os.Stat(path)
			chop(t, path, st.Size()-30)
		}},
		{"final-crc", func(t *testing.T, path string, offs []int64) {
			flipByte(t, path, offs[len(offs)-1]+binFrameLen+3)
		}},
		{"interior-crc", func(t *testing.T, path string, offs []int64) {
			flipByte(t, path, offs[2]+binFrameLen+3)
		}},
		{"interior-kind", func(t *testing.T, path string, offs []int64) {
			flipByte(t, path, offs[2])
		}},
	} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				setParallelism(t, p)
				path := binPath(t, "dmg.sharpb")
				offs := binLayout(t, path, all)
				tc.hurt(t, path, offs)
				want, wantTorn, werr := readReference(t, path)
				eachSource(t, func(t *testing.T) {
					sc, got, gerr := readLogFile(path, nil)
					sameRead(t, got, sc.torn, gerr, want, wantTorn, werr)
					var streamed []Row
					sc, gerr = streamLogFile(path, func(batch []Row) error {
						streamed = append(streamed, batch...)
						return nil
					})
					sameRead(t, streamed, sc.torn, gerr, want, wantTorn, werr)
				})
			})
		}
	}
}

// TestStreamFileMappedParity proves StreamFile delivers the same rows in the
// same order as the reference scanner, over either byte source.
func TestStreamFileMappedParity(t *testing.T) {
	path := binPath(t, "stream.sharpb")
	rows := sampleRows(2*binBlockRows + 100)
	writeBinary(t, path, rows, Options{})
	want, _, _ := readReference(t, path)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			setParallelism(t, p)
			eachSource(t, func(t *testing.T) {
				var got []Row
				if err := StreamFile(path, func(batch []Row) error {
					got = append(got, batch...) // copies: batches are reused
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatal("streamed rows differ from reference")
				}
			})
		})
	}
}

// TestStreamFileMappedSinkError proves a sink error aborts a stream
// promptly and is returned verbatim.
func TestStreamFileMappedSinkError(t *testing.T) {
	path := binPath(t, "sinkerr.sharpb")
	writeBinary(t, path, sampleRows(6*binBlockRows), Options{})
	boom := fmt.Errorf("sink boom")
	n := 0
	err := StreamFile(path, func(batch []Row) error {
		if n++; n == 2 {
			return boom
		}
		return nil
	})
	if err != boom || n != 2 {
		t.Fatalf("err = %v after %d batches, want %v after 2", err, n, boom)
	}
}

// TestNoMmapEnvForcesFallback proves SHARP_RECORD_NOMMAP=1 makes the reader
// walk a private copy of the file: truncating the file under it changes
// nothing, where a mapping would lose the pages.
func TestNoMmapEnvForcesFallback(t *testing.T) {
	path := binPath(t, "nommap.sharpb")
	rows := sampleRows(3 * binBlockRows)
	writeBinary(t, path, rows, Options{})
	t.Setenv(NoMmapEnv, "1")
	b, err := loadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.release()
	chop(t, path, 4096)
	sc, got, err := readLog(b.data, nil)
	if err != nil || sc.torn || !reflect.DeepEqual(rows, got) {
		t.Fatalf("read of the copy = (%d rows, torn=%v, %v)", len(got), sc.torn, err)
	}
}

// TestTruncatedUnderMappingIsError is the regression test for a mapped log
// shrinking under its reader (another process repairing or truncating it):
// touching the vanished pages raises SIGBUS, which must surface as an error
// from every entry point instead of killing the process — whether the frame
// walk or a (parallel) block decode is the first to touch them.
func TestTruncatedUnderMappingIsError(t *testing.T) {
	if !mmapSupported || mmapDisabled() {
		t.Skip("nothing is mapped")
	}
	page := int64(os.Getpagesize())
	for _, tc := range []struct {
		name string
		cut  func(last int64) int64 // last: offset of the final data frame
	}{
		{"frames", func(int64) int64 { return 4096 }},
		{"payload", func(last int64) int64 { return (last + binFrameLen + page - 1) / page * page }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := binPath(t, "shrunk.sharpb")
			writeBinary(t, path, sampleRows(2*binBlockRows+100), Options{}) // 3 data blocks
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, _, err := scanReference(f, nil, false, nil)
			f.Close()
			if err != nil || len(sc.blocks) != 3 {
				t.Fatalf("reference scan = (%d blocks, %v), want 3 blocks", len(sc.blocks), err)
			}
			b, err := loadLog(path)
			if err != nil {
				t.Fatal(err)
			}
			defer b.release()
			data := b.data
			checked, err := checkLog(data)
			if err != nil {
				t.Fatal(err)
			}
			chop(t, path, tc.cut(sc.blocks[2].off))
			faulted := func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "changed under its mapping")
			}
			for _, p := range []int{1, 4} {
				setParallelism(t, p)
				if _, _, err := readLog(data, nil); !faulted(err) {
					t.Errorf("p=%d: read over a truncated mapping = %v, want a fault error", p, err)
				}
				if _, err := checkLog(data); !faulted(err) {
					t.Errorf("p=%d: repair scan over a truncated mapping = %v, want a fault error", p, err)
				}
			}
			if _, err := streamLog(data, func([]Row) error { return nil }); !faulted(err) {
				t.Errorf("stream over a truncated mapping = %v, want a fault error", err)
			}
			// A truncation reads run columns and decodes the block its cut
			// splits: both lie in the vanished pages.
			f, err = os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, _, err := cutBinary(f, data, checked, checked.rows-50, nil); !faulted(err) {
				t.Errorf("truncation over a truncated mapping = %v, want a fault error", err)
			}
		})
	}
}

// TestReadFileInto proves the reuse path: a second read into the first
// read's slab returns identical rows without reallocating the backing array.
func TestReadFileInto(t *testing.T) {
	path := binPath(t, "reuse.sharpb")
	rows := sampleRows(binBlockRows + 50)
	writeBinary(t, path, rows, Options{})
	first, err := ReadFileInto(path, nil)
	if err != nil || !reflect.DeepEqual(rows, first) {
		t.Fatalf("first read = (%d rows, %v)", len(first), err)
	}
	second, err := ReadFileInto(path, first)
	if err != nil || !reflect.DeepEqual(rows, second) {
		t.Fatalf("second read = (%d rows, %v)", len(second), err)
	}
	if unsafe.SliceData(first) != unsafe.SliceData(second) {
		t.Fatal("second read reallocated despite sufficient capacity")
	}
}

// writeOversizedBlockLog writes a structurally valid binary log whose single
// data block holds more than binBlockRows rows — never produced by SHARP's
// writer, but legal under the frame rules and accepted by the streaming
// scanner, so a foreign writer may emit it.
func writeOversizedBlockLog(t *testing.T, path string, rows []Row) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := newBinWriterCore(bufio.NewWriterSize(f, 1<<16))
	bw.f = f
	if _, err := bw.bw.WriteString(binMagic); err != nil {
		t.Fatal(err)
	}
	dict := map[string]uint32{}
	var dp []byte
	for i := range rows {
		for _, s := range rows[i].binStrings() {
			if _, ok := dict[s]; !ok {
				dict[s] = uint32(len(dict))
				dp = binary.LittleEndian.AppendUint32(dp, uint32(len(s)))
				dp = append(dp, s...)
			}
		}
	}
	if err := bw.writeBlock(binKindDict, len(dict), 0, 0, dp); err != nil {
		t.Fatal(err)
	}
	payload := encodeDataBlock(rows, dict)
	if err := bw.writeBlock(binKindData, len(rows), rows[0].Run, rows[len(rows)-1].Run, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedOversizedBlock proves the readers handle a foreign data block
// larger than binBlockRows exactly like the reference scanner — decode it,
// not panic on a fixed-size batch buffer — across stream and read paths,
// serial and parallel.
func TestMappedOversizedBlock(t *testing.T) {
	rows := runRows((binBlockRows+100)/2, 2) // one block of binBlockRows+100 rows
	path := binPath(t, "oversized.sharpb")
	writeOversizedBlockLog(t, path, rows)
	want, wantTorn, werr := readReference(t, path)
	if werr != nil || wantTorn {
		t.Fatalf("reference = (torn=%v, %v), want clean", wantTorn, werr)
	}
	for _, p := range []int{1, 4} {
		setParallelism(t, p)
		sc, got, gerr := readLogFile(path, nil)
		if gerr != nil || sc.torn || !reflect.DeepEqual(want, got) {
			t.Fatalf("p=%d: read = (%d rows, torn=%v, %v)", p, len(got), sc.torn, gerr)
		}
		var streamed []Row
		if err := StreamFile(path, func(batch []Row) error {
			streamed = append(streamed, batch...)
			return nil
		}); err != nil || !reflect.DeepEqual(want, streamed) {
			t.Fatalf("p=%d: stream = (%d rows, %v)", p, len(streamed), err)
		}
	}
	t.Run("corrupt-classification", func(t *testing.T) {
		// A flipped byte inside the oversized (final) block must classify
		// exactly as the reference does: torn tail, not a panic or hard error.
		setParallelism(t, 4)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, path, st.Size()-10) // inside the oversized (final) data payload
		want, wantTorn, werr := readReference(t, path)
		sc, got, gerr := readLogFile(path, nil)
		sameRead(t, got, sc.torn, gerr, want, wantTorn, werr)
	})
}

// TestSetReadParallelismZeroMeansGOMAXPROCS pins the --parallel flag
// contract: 0 is "GOMAXPROCS at call time", not serial.
func TestSetReadParallelismZeroMeansGOMAXPROCS(t *testing.T) {
	prev := readParallelism.Load()
	t.Cleanup(func() { readParallelism.Store(prev) })
	SetReadParallelism(0)
	if got, want := ReadParallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("ReadParallelism after SetReadParallelism(0) = %d, want GOMAXPROCS %d", got, want)
	}
	SetReadParallelism(3)
	if got := ReadParallelism(); got != 3 {
		t.Fatalf("ReadParallelism = %d, want 3", got)
	}
	SetReadParallelism(-2)
	if got := ReadParallelism(); got != 1 {
		t.Fatalf("ReadParallelism after negative set = %d, want 1", got)
	}
}

// TestOpenAppendEmptyBinaryRepairs is the regression test for the
// crash-before-first-flush artifact: OpenAppend on a 0-byte log, binary or
// CSV, must start the log over instead of failing the resume.
func TestOpenAppendEmptyBinaryRepairs(t *testing.T) {
	for _, segRows := range []int{0, 4} {
		t.Run(fmt.Sprintf("segmentRows=%d", segRows), func(t *testing.T) {
			path := binPath(t, "empty.sharpb")
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			w, n, err := OpenAppend(path, Options{FlushEvery: 1, SegmentRows: segRows})
			if err != nil {
				t.Fatalf("OpenAppend on 0-byte log: %v", err)
			}
			if n != 0 {
				t.Fatalf("rows = %d, want 0", n)
			}
			rows := sampleRows(5)
			if err := w.WriteAll(rows); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(path)
			if err != nil || !reflect.DeepEqual(rows, got) {
				t.Fatalf("ReadFile after repair = (%d rows, %v)", len(got), err)
			}
		})
	}
	t.Run("read-and-repair-surfaces", func(t *testing.T) {
		// The resume flow hits TruncateTrailingRun, ReadFile, and ScanFile
		// before OpenAppend: each must treat the 0-byte artifact as an empty
		// log, not a malformed one.
		path := binPath(t, "empty2.sharpb")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, lastRun, torn, err := ScanFile(path); rows != 0 || lastRun != 0 || torn || err != nil {
			t.Fatalf("ScanFile = (%d, %d, %v, %v), want (0, 0, false, nil)", rows, lastRun, torn, err)
		}
		if got, err := ReadFile(path); len(got) != 0 || err != nil {
			t.Fatalf("ReadFile = (%d rows, %v), want empty", len(got), err)
		}
		if err := StreamFile(path, func([]Row) error { return errors.New("no batches expected") }); err != nil {
			t.Fatalf("StreamFile = %v, want nil", err)
		}
		if rows, dropped, err := TruncateTrailingRun(path); rows != 0 || dropped != 0 || err != nil {
			t.Fatalf("TruncateTrailingRun = (%d, %d, %v), want (0, 0, nil)", rows, dropped, err)
		}
		if _, _, _, err := Reopen(path, 3, Options{}); err == nil {
			t.Fatal("Reopen(3) on empty artifact succeeded, want error")
		}
		w, rows, dropped, err := Reopen(path, 0, Options{})
		if err != nil || len(rows) != 0 || dropped != 0 {
			t.Fatalf("Reopen(0) = (%d rows, dropped %d, %v), want a fresh log", len(rows), dropped, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("csv-empty-resumes", func(t *testing.T) {
		// A 0-byte CSV log is the same crash artifact: its header is
		// written with the first row, so no row was ever durable. Every
		// surface reads it as empty and OpenAppend starts it over.
		path := binPath(t, "empty.csv")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, lastRun, torn, err := ScanFile(path); rows != 0 || lastRun != 0 || torn || err != nil {
			t.Fatalf("ScanFile = (%d, %d, %v, %v), want (0, 0, false, nil)", rows, lastRun, torn, err)
		}
		if got, err := ReadFile(path); len(got) != 0 || err != nil {
			t.Fatalf("ReadFile = (%d rows, %v), want empty", len(got), err)
		}
		if got, err := ReadFileInto(path, nil); len(got) != 0 || err != nil {
			t.Fatalf("ReadFileInto = (%d rows, %v), want empty", len(got), err)
		}
		if err := StreamFile(path, func([]Row) error { return errors.New("no batches expected") }); err != nil {
			t.Fatalf("StreamFile = %v, want nil", err)
		}
		if rows, dropped, err := TruncateTrailingRun(path); rows != 0 || dropped != 0 || err != nil {
			t.Fatalf("TruncateTrailingRun = (%d, %d, %v), want (0, 0, nil)", rows, dropped, err)
		}
		w, n, err := OpenAppend(path, Options{FlushEvery: 1})
		if err != nil || n != 0 {
			t.Fatalf("OpenAppend = (%d rows, %v), want a fresh log", n, err)
		}
		rows := sampleRows(5)
		if err := w.WriteAll(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadFile(path); err != nil || !reflect.DeepEqual(rows, got) {
			t.Fatalf("ReadFile after repair = (%d rows, %v)", len(got), err)
		}
	})
}
