package record

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// reopenSequence is the sequence Reopen replaces: the cut (to checkpoint
// rows, or past the trailing run), ReadFile, then OpenAppend. A single-file
// binary log is cut by the decode-path oracles.
func reopenSequence(path string, checkpoint int, o Options) (*Writer, []Row, int, error) {
	format, err := sniffRead(path)
	if err != nil {
		return nil, nil, 0, err
	}
	dropped := 0
	switch {
	case format == FormatBinary && checkpoint < 0:
		_, dropped, err = truncateTrailingRunReference(path)
	case format == FormatBinary:
		err = truncateRowsReference(path, checkpoint)
	case checkpoint < 0:
		_, dropped, err = TruncateTrailingRun(path)
	case format == formatSegmented:
		err = truncateRowsSegmentedReference(path, checkpoint)
	default:
		err = truncateRowsCSV(path, checkpoint)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	rows, err := ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	w, _, err := OpenAppend(path, o)
	if err != nil {
		return nil, nil, 0, err
	}
	return w, rows, dropped, nil
}

// reopenCase plants one log in dir and names the options it continues with.
type reopenCase struct {
	name  string
	file  string // log name under dir
	o     Options
	plant func(t *testing.T, path string)
	rows  int // rows written, to choose checkpoints around
}

// reopenCases returns the CSV, segmented and 0-byte logs of the Reopen
// differential; the binary logs come from repairLogs.
func reopenCases() []reopenCase {
	all := runRows(8, 3) // 24 rows
	csv := func(name string, hurt func(t *testing.T, path string)) reopenCase {
		return reopenCase{name: "csv/" + name, file: "log.csv", o: Options{FlushEvery: 1}, rows: len(all),
			plant: func(t *testing.T, path string) {
				writeLog(t, path, all, Options{})
				if hurt != nil {
					hurt(t, path)
				}
			}}
	}
	seg := func(name string, hurt func(t *testing.T, path string)) reopenCase {
		return reopenCase{name: "segmented/" + name, file: "log.sharpb", o: Options{FlushEvery: 1, SegmentRows: 6}, rows: len(all),
			plant: func(t *testing.T, path string) {
				writeSegmented(t, path, all, 6)
				if hurt != nil {
					hurt(t, path)
				}
			}}
	}
	active := func(t *testing.T, path string) string { return segPath(path, segCount(t, path)-1) }
	size := func(t *testing.T, path string) int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	empty := func(t *testing.T, path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return []reopenCase{
		csv("clean", nil),
		csv("torn", func(t *testing.T, path string) { chop(t, path, size(t, path)-9) }),
		csv("corrupt", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] = '"'
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}),
		{name: "csv/0-byte", file: "log.csv", o: Options{FlushEvery: 1}, plant: empty},
		{name: "binary/0-byte", file: "log.sharpb", o: Options{FlushEvery: 1}, plant: empty},
		seg("clean", nil),
		seg("torn-active", func(t *testing.T, path string) { ap := active(t, path); chop(t, ap, size(t, ap)-7) }),
		seg("corrupt-active", func(t *testing.T, path string) { flipByte(t, active(t, path), 40) }),
		seg("corrupt-sealed", func(t *testing.T, path string) { flipByte(t, segPath(path, 0), 40) }),
		seg("0-byte-active", func(t *testing.T, path string) { empty(t, active(t, path)) }),
		seg("missing-active", func(t *testing.T, path string) {
			if err := os.Remove(active(t, path)); err != nil {
				t.Fatal(err)
			}
		}),
		seg("0-byte-active-torn-sealed", func(t *testing.T, path string) {
			ap := active(t, path)
			empty(t, ap)
			prev := segPath(path, segCount(t, path)-2)
			chop(t, prev, size(t, prev)-5)
		}),
		seg("damaged-manifest", func(t *testing.T, path string) { flipByte(t, path, 9) }),
	}
}

// TestReopenMatchesTruncateReadAppend holds Reopen to the sequence it
// replaces (the cut, ReadFile, OpenAppend) on the binary logs of
// repairLogs — with and without mmap, serially and on four workers — and on
// a binary log whose dictionary grows run by run, CSV logs, segmented logs
// and 0-byte artifacts, clean, torn and corrupt, for no checkpoint and for
// checkpoints up to past the row count. Both must return the same rows,
// dropped run and error, and after the same further rows (some with new
// strings) go through each writer, leave the same log bytes.
func TestReopenMatchesTruncateReadAppend(t *testing.T) {
	extra := runRows(3, 2)
	for i := range extra {
		extra[i].Run += 40
		if i%2 == 1 {
			extra[i].Machine = "machine-extra"
		}
	}
	check := func(t *testing.T, rc reopenCase, checkpoint int) {
		t.Helper()
		var paths [2]string
		for i := range paths {
			dir := t.TempDir()
			paths[i] = filepath.Join(dir, rc.file)
			rc.plant(t, paths[i])
		}
		op := fmt.Sprintf("checkpoint %d", checkpoint)
		gw, grows, gdropped, gerr := Reopen(paths[0], checkpoint, rc.o)
		ww, wrows, wdropped, werr := reopenSequence(paths[1], checkpoint, rc.o)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: Reopen error %v, sequence %v", op, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if len(grows)+len(wrows) > 0 && !reflect.DeepEqual(grows, wrows) || gdropped != wdropped || gw.Rows() != ww.Rows() || gw.Rows() != len(grows) {
			t.Errorf("%s: Reopen = (%d rows, dropped %d, writer %d), sequence (%d rows, dropped %d, writer %d)",
				op, len(grows), gdropped, gw.Rows(), len(wrows), wdropped, ww.Rows())
		}
		for i, w := range []*Writer{gw, ww} {
			if err := w.WriteAll(extra); err != nil {
				t.Fatalf("%s: writer %d: %v", op, i, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s: writer %d: %v", op, i, err)
			}
		}
		if d := sameTree(treeBytes(t, filepath.Dir(paths[0])), treeBytes(t, filepath.Dir(paths[1]))); d != "" {
			t.Errorf("%s: after further writes, Reopen's log differs from the sequence's: %s", op, d)
		}
	}
	checkpoints := func(rows int) []int {
		return []int{-1, 0, 1, 2, 4, 5, 6, 7, rows / 2, rows - 1, rows, rows + 1}
	}

	var binary []reopenCase
	for _, lg := range repairLogs(t) {
		ref, _, _ := scanReference(bytes.NewReader(lg.data), nil, false, nil)
		binary = append(binary, reopenCase{name: lg.name, file: "log.sharpb", o: Options{FlushEvery: 3}, rows: ref.rows,
			plant: func(t *testing.T, path string) {
				if err := os.WriteFile(path, lg.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}})
	}
	for _, torn := range []bool{false, true} {
		grown := runRows(9, 2)
		for i := range grown {
			grown[i].Error = fmt.Sprintf("error of run %d", grown[i].Run)
		}
		binary = append(binary, reopenCase{name: fmt.Sprintf("growing-dict/torn=%v", torn), file: "log.sharpb", o: Options{FlushEvery: 2}, rows: len(grown),
			plant: func(t *testing.T, path string) {
				writeBinary(t, path, grown, Options{FlushEvery: 3})
				if torn {
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					chop(t, path, st.Size()-30)
				}
			}})
	}
	for _, nommap := range []string{"", "1"} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("nommap=%s/p=%d", nommap, p), func(t *testing.T) {
				t.Setenv(NoMmapEnv, nommap)
				setParallelism(t, p)
				for _, rc := range binary {
					t.Run(rc.name, func(t *testing.T) {
						for _, cp := range checkpoints(rc.rows) {
							check(t, rc, cp)
						}
					})
				}
			})
		}
	}
	for _, rc := range reopenCases() {
		t.Run(rc.name, func(t *testing.T) {
			for _, cp := range append(checkpoints(rc.rows), 12, 13, 18, 100) {
				check(t, rc, cp)
			}
		})
	}
}
