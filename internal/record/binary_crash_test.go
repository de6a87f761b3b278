package record

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// chop truncates the file to size bytes (simulating a crash mid-write).
func chop(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs one byte of the file at off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// binLayout writes rows with one row per block (FlushEvery 1) and returns
// the frame offsets of every data block, so tests can surgically damage a
// chosen block.
func binLayout(t *testing.T, path string, rows []Row) []int64 {
	t.Helper()
	writeBinary(t, path, rows, Options{FlushEvery: 1})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, _, err := scanReference(f, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, len(sc.blocks))
	for i, b := range sc.blocks {
		offs[i] = b.off
	}
	return offs
}

func TestBinaryTornTailRepair(t *testing.T) {
	all := runRows(6, 2)
	for _, tc := range []struct {
		name string
		cut  func(path string, offs []int64, size int64) int64 // returns new size
	}{
		{"mid-frame", func(path string, offs []int64, size int64) int64 { return offs[len(offs)-1] + 7 }},
		{"mid-payload", func(path string, offs []int64, size int64) int64 { return size - 30 }},
		{"frame-only", func(path string, offs []int64, size int64) int64 { return offs[len(offs)-1] + binFrameLen }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := binPath(t, "torn.sharpb")
			offs := binLayout(t, path, all)
			st, _ := os.Stat(path)
			chop(t, path, tc.cut(path, offs, st.Size()))

			rows, lastRun, torn, err := ScanFile(path)
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if !torn || rows != 11 || lastRun != 6 {
				t.Fatalf("scan = (%d,%d,%v), want (11,6,true)", rows, lastRun, torn)
			}
			w, n, err := OpenAppend(path, Options{FlushEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			if n != 11 {
				t.Fatalf("OpenAppend rows = %d, want 11", n)
			}
			if err := w.Write(all[11]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all, got) {
				t.Fatal("repaired+appended log differs from uninterrupted rows")
			}
		})
	}
}

func TestBinaryFinalBlockCRCDamageIsTorn(t *testing.T) {
	// A checksum mismatch on the file's final block with nothing after it is
	// indistinguishable from a torn disk write: repairable.
	path := binPath(t, "crcfinal.sharpb")
	all := runRows(5, 2)
	offs := binLayout(t, path, all)
	flipByte(t, path, offs[len(offs)-1]+binFrameLen+3) // payload byte of last block
	rows, _, torn, err := ScanFile(path)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !torn || rows != 9 {
		t.Fatalf("scan = (%d, torn=%v), want (9, true)", rows, torn)
	}
	if _, n, err := OpenAppend(path, Options{}); err != nil || n != 9 {
		t.Fatalf("OpenAppend = (%d, %v)", n, err)
	}
}

func TestBinaryInteriorCorruptionRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		hurt func(t *testing.T, path string, offs []int64)
	}{
		{"payload-crc", func(t *testing.T, path string, offs []int64) {
			flipByte(t, path, offs[2]+binFrameLen+5)
		}},
		{"frame-crc", func(t *testing.T, path string, offs []int64) {
			flipByte(t, path, offs[2]+2) // row-count byte, caught by the frame CRC
		}},
		{"bad-kind", func(t *testing.T, path string, offs []int64) {
			f, _ := os.OpenFile(path, os.O_RDWR, 0)
			defer f.Close()
			f.WriteAt([]byte{0x7e}, offs[2])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := binPath(t, "corrupt.sharpb")
			offs := binLayout(t, path, runRows(6, 2))
			tc.hurt(t, path, offs)
			if _, _, _, err := ScanFile(path); err == nil {
				t.Fatal("ScanFile accepted interior corruption")
			} else if !strings.Contains(err.Error(), "corrupt block") {
				t.Fatalf("unexpected error: %v", err)
			}
			if _, _, err := OpenAppend(path, Options{}); err == nil {
				t.Fatal("OpenAppend accepted interior corruption")
			}
			if _, err := ReadFile(path); err == nil {
				t.Fatal("ReadFile accepted interior corruption")
			}
		})
	}
}

func TestBinaryEmptyAndHeaderOnly(t *testing.T) {
	// A log holding only the magic (crashed before the first flush) scans
	// clean and appends fine.
	path := binPath(t, "empty.sharpb")
	writeBinary(t, path, nil, Options{})
	rows, lastRun, torn, err := ScanFile(path)
	if err != nil || torn || rows != 0 || lastRun != 0 {
		t.Fatalf("empty scan = (%d,%d,%v,%v)", rows, lastRun, torn, err)
	}
	n, dropped, err := TruncateTrailingRun(path)
	if err != nil || n != 0 || dropped != 0 {
		t.Fatalf("TruncateTrailingRun on empty = (%d,%d,%v)", n, dropped, err)
	}
	// A file shorter than the magic is not a binary log; it falls to the CSV
	// reader and fails like a garbage CSV always has.
	short := binPath(t, "short.sharpb")
	os.WriteFile(short, []byte("SHA"), 0o644)
	if _, _, _, err := ScanFile(short); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestBinaryTruncateTrailingRunAfterTorn(t *testing.T) {
	// Crash mid-run: torn tail plus a possibly-incomplete final run — the
	// hard-crash recovery path must drop both.
	path := binPath(t, "hard.sharpb")
	all := runRows(5, 3)
	offs := binLayout(t, path, all)
	// Cut inside the payload of the second row of run 5 (rows are 1/block).
	chop(t, path, offs[13]+binFrameLen+10)
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
		t.Fatal("retained prefix differs")
	}
}
