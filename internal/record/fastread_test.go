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

// readStreaming reads a binary log through the portable scanner, bypassing
// the mapped fast path — the reference the mapped reader must match.
func readStreaming(t *testing.T, path string) ([]Row, bool, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, rows, err := scanBinaryDst(f, nil)
	return rows, sc.torn, err
}

// TestMappedReadParity proves the mapped reader returns bit-identical rows to
// the streaming scanner on clean logs, across block shapes and parallelism.
func TestMappedReadParity(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	for _, n := range []int{0, 1, 25, binBlockRows, 3*binBlockRows + 17} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				setParallelism(t, p)
				path := binPath(t, "parity.sharpb")
				writeBinary(t, path, sampleRows(n), Options{})
				want, wantTorn, werr := readStreaming(t, path)
				got, gotTorn, ok, gerr := readBinaryFileFast(path, nil)
				if !ok {
					t.Fatal("mapped fast path unavailable")
				}
				if (werr == nil) != (gerr == nil) || wantTorn != gotTorn {
					t.Fatalf("mapped=(torn=%v,%v) streaming=(torn=%v,%v)", gotTorn, gerr, wantTorn, werr)
				}
				if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
					t.Fatalf("mapped rows differ from streaming rows (%d vs %d)", len(got), len(want))
				}
			})
		}
	}
}

// TestMappedDamageParity drives the mapped and streaming readers over the
// same damaged logs: identical rows, torn verdicts, and error strings.
func TestMappedDamageParity(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
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
				want, wantTorn, werr := readStreaming(t, path)
				got, gotTorn, ok, gerr := readBinaryFileFast(path, nil)
				if !ok {
					t.Fatal("mapped fast path unavailable")
				}
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("error mismatch:\n  mapped:    %v\n  streaming: %v", gerr, werr)
				}
				if werr != nil {
					return
				}
				if wantTorn != gotTorn || !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
					t.Fatalf("mapped (%d rows, torn=%v) differs from streaming (%d rows, torn=%v)",
						len(got), gotTorn, len(want), wantTorn)
				}
			})
		}
	}
}

// TestStreamFileMappedParity proves StreamFile delivers the same rows in the
// same order through the mapped path (serial and parallel) as the portable
// scanner.
func TestStreamFileMappedParity(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	path := binPath(t, "stream.sharpb")
	rows := sampleRows(2*binBlockRows + 100)
	writeBinary(t, path, rows, Options{})
	want, _, _ := readStreaming(t, path)
	for _, p := range []int{1, 3} {
		setParallelism(t, p)
		var got []Row
		if err := StreamFile(path, func(batch []Row) error {
			got = append(got, batch...) // copies: batches are reused
			return nil
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("p=%d: streamed rows differ from reference", p)
		}
	}
}

// TestStreamFileMappedSinkError proves a sink error aborts a parallel
// mapped stream promptly and is returned verbatim.
func TestStreamFileMappedSinkError(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	setParallelism(t, 4)
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
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestNoMmapEnvForcesFallback proves SHARP_RECORD_NOMMAP=1 disables the
// mapped path while keeping results identical.
func TestNoMmapEnvForcesFallback(t *testing.T) {
	path := binPath(t, "nommap.sharpb")
	rows := sampleRows(100)
	writeBinary(t, path, rows, Options{})
	t.Setenv(NoMmapEnv, "1")
	if _, _, ok, _ := readBinaryFileFast(path, nil); ok {
		t.Fatal("mapped path ran despite SHARP_RECORD_NOMMAP=1")
	}
	got, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(rows, got) {
		t.Fatalf("fallback ReadFile = (%d rows, %v)", len(got), err)
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

// TestMappedOversizedBlock proves the mapped readers handle a foreign data
// block larger than binBlockRows exactly like the streaming scanner — decode
// it, not panic on a fixed-size batch buffer — across stream, read, and
// ranged-read paths, serial and parallel.
func TestMappedOversizedBlock(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	rows := runRows((binBlockRows+100)/2, 2) // one block of binBlockRows+100 rows
	path := binPath(t, "oversized.sharpb")
	writeOversizedBlockLog(t, path, rows)
	want, wantTorn, werr := readStreaming(t, path)
	if werr != nil || wantTorn {
		t.Fatalf("streaming reference = (torn=%v, %v), want clean", wantTorn, werr)
	}
	for _, p := range []int{1, 4} {
		setParallelism(t, p)
		got, gotTorn, ok, gerr := readBinaryFileFast(path, nil)
		if !ok || gerr != nil || gotTorn || !reflect.DeepEqual(want, got) {
			t.Fatalf("p=%d: mapped read = (%d rows, torn=%v, ok=%v, %v)", p, len(got), gotTorn, ok, gerr)
		}
		var streamed []Row
		if err := StreamFile(path, func(batch []Row) error {
			streamed = append(streamed, batch...)
			return nil
		}); err != nil || !reflect.DeepEqual(want, streamed) {
			t.Fatalf("p=%d: mapped stream = (%d rows, %v)", p, len(streamed), err)
		}
	}
	t.Run("corrupt-classification", func(t *testing.T) {
		// A flipped byte inside the oversized (final) block must classify
		// identically on both paths: torn tail, not a panic or hard error.
		setParallelism(t, 4)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, path, st.Size()-10) // inside the oversized (final) data payload
		want, wantTorn, werr := readStreaming(t, path)
		got, gotTorn, ok, gerr := readBinaryFileFast(path, nil)
		if !ok {
			t.Fatal("mapped fast path unavailable")
		}
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || wantTorn != gotTorn {
			t.Fatalf("mapped=(torn=%v,%v) streaming=(torn=%v,%v)", gotTorn, gerr, wantTorn, werr)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("mapped rows differ from streaming rows (%d vs %d)", len(got), len(want))
		}
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
// crash-before-first-flush artifact: OpenAppend on a 0-byte file at a binary
// path must start the log over instead of failing the resume.
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
		if err := TruncateRows(path, 0); err != nil {
			t.Fatalf("TruncateRows(0) = %v, want nil", err)
		}
		if err := TruncateRows(path, 3); err == nil {
			t.Fatal("TruncateRows(3) on empty artifact succeeded, want error")
		}
	})
	t.Run("csv-still-errors", func(t *testing.T) {
		// A 0-byte CSV log still fails with the historical message: there is
		// no header to validate, and CSV logs have no crash-artifact excuse
		// (the header is written before any row).
		path := binPath(t, "empty.csv")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenAppend(path, Options{})
		if err == nil || !strings.Contains(err.Error(), "header") {
			t.Fatalf("err = %v, want a header error", err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Fatal("ReadFile on 0-byte CSV succeeded, want header error")
		}
	})
}
