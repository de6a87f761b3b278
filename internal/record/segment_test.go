package record

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// writeSegmented writes rows to a segmented binary log rolling every segRows.
func writeSegmented(t *testing.T, path string, rows []Row, segRows int) {
	t.Helper()
	w, err := CreateDurable(path, Options{FlushEvery: 1, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if w.seg == nil {
		t.Fatalf("CreateDurable(%q, SegmentRows=%d) did not pick the segmented layout", path, segRows)
	}
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// segCount returns the number of segment files on disk.
func segCount(t *testing.T, path string) int {
	t.Helper()
	des, err := os.ReadDir(segDir(path))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), BinaryExt) {
			n++
		}
	}
	return n
}

// logBytes snapshots every byte of a segmented log — manifest plus all
// segments — for byte-identity differentials.
func logBytes(t *testing.T, path string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out["manifest"] = data
	des, err := os.ReadDir(segDir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), BinaryExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(segDir(path), de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = data
	}
	return out
}

// TestSegmentedRoundTrip checks the full surface of a multi-segment log
// against the same rows in a single-file log: identical rows, scan results,
// stream batches, and ranged reads.
func TestSegmentedRoundTrip(t *testing.T) {
	all := runRows(40, 3) // 120 rows
	single := binPath(t, "single.sharpb")
	writeBinary(t, single, all, Options{FlushEvery: 1})
	path := filepath.Join(t.TempDir(), "seg.sharpb")
	writeSegmented(t, path, all, 10)

	if n := segCount(t, path); n < 4 {
		t.Fatalf("expected >=4 segments at segRows=10, got %d", n)
	}
	want, err := ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("segmented rows differ from single-file rows (%d vs %d)", len(got), len(want))
	}
	r1, l1, torn1, err1 := ScanFile(single)
	r2, l2, torn2, err2 := ScanFile(path)
	if err1 != nil || err2 != nil || r1 != r2 || l1 != l2 || torn1 != torn2 {
		t.Fatalf("scan mismatch: single=(%d,%d,%v,%v) segmented=(%d,%d,%v,%v)",
			r1, l1, torn1, err1, r2, l2, torn2, err2)
	}
	var streamed []Row
	if err := StreamFile(path, func(batch []Row) error {
		streamed = append(streamed, batch...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, streamed) {
		t.Fatal("segmented stream differs from single-file rows")
	}
}

// TestSegmentedRunsNeverSpanSegments verifies the roll invariant: every run's
// rows live in exactly one segment file.
func TestSegmentedRunsNeverSpanSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "span.sharpb")
	writeSegmented(t, path, runRows(30, 4), 7) // roll threshold mid-run on purpose
	owner := map[int]int{}
	for i := 0; i < segCount(t, path); i++ {
		rows, err := ReadFile(segPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if prev, ok := owner[r.Run]; ok && prev != i {
				t.Fatalf("run %d spans segments %d and %d", r.Run, prev, i)
			}
			owner[r.Run] = i
		}
	}
}

// TestSegmentedResumeByteIdentity is the resume differential: interrupt a
// segmented campaign (torn active segment), repair via OpenAppend, append the
// remaining rows — the final on-disk bytes must equal the uninterrupted
// write, manifest included.
func TestSegmentedResumeByteIdentity(t *testing.T) {
	all := runRows(40, 3)
	ref := filepath.Join(t.TempDir(), "ref.sharpb")
	writeSegmented(t, ref, all, 10)

	path := filepath.Join(t.TempDir(), "crash.sharpb")
	w, err := CreateDurable(path, Options{FlushEvery: 1, SegmentRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	cut := 97 // mid-run 33: inside the active segment
	if err := w.WriteAll(all[:cut]); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: abandon the writer (no Close, no index) and tear the
	// active segment mid-block.
	ap := segPath(path, segCount(t, path)-1)
	st, err := os.Stat(ap)
	if err != nil {
		t.Fatal(err)
	}
	chop(t, ap, st.Size()-13)

	rows, droppedRun, err := TruncateTrailingRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if droppedRun == 0 {
		t.Fatal("expected the torn trailing run to be dropped")
	}
	w2, n, err := OpenAppend(path, Options{FlushEvery: 1, SegmentRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("OpenAppend rows=%d, TruncateTrailingRun said %d", n, rows)
	}
	if err := w2.WriteAll(all[n:]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(all, got) {
		t.Fatalf("resumed rows differ (%d, %v)", len(got), err)
	}
	wantBytes, gotBytes := logBytes(t, ref), logBytes(t, path)
	if len(wantBytes) != len(gotBytes) {
		t.Fatalf("file sets differ: ref=%d files, resumed=%d files", len(wantBytes), len(gotBytes))
	}
	for name, want := range wantBytes {
		if !reflect.DeepEqual(want, gotBytes[name]) {
			t.Fatalf("%s differs between uninterrupted and resumed logs", name)
		}
	}
}

// TestSegmentedManifestDamageRebuild tears or corrupts the manifest itself;
// every reader must rebuild it from the segments, and OpenAppend must
// persist the repair and resume byte-identically.
func TestSegmentedManifestDamageRebuild(t *testing.T) {
	all := runRows(40, 3)
	for _, tc := range []struct {
		name string
		hurt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			st, _ := os.Stat(path)
			chop(t, path, st.Size()/2)
		}},
		{"zeroed", func(t *testing.T, path string) {
			if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"crc-flip", func(t *testing.T, path string) { flipByte(t, path, segHeaderLen+3) }},
		{"deleted", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := filepath.Join(t.TempDir(), "ref.sharpb")
			writeSegmented(t, ref, all, 10)
			path := filepath.Join(t.TempDir(), "mfst.sharpb")
			writeSegmented(t, path, all[:97], 10)
			tc.hurt(t, path)

			rows, _, _, err := ScanFile(path)
			if err != nil {
				t.Fatalf("scan after manifest damage: %v", err)
			}
			if rows != 97 {
				t.Fatalf("scan rows=%d, want 97", rows)
			}
			got, err := ReadFile(path)
			if err != nil || !reflect.DeepEqual(all[:97], got) {
				t.Fatalf("read after manifest damage = (%d rows, %v)", len(got), err)
			}
			w, n, err := OpenAppend(path, Options{FlushEvery: 1, SegmentRows: 10})
			if err != nil {
				t.Fatalf("OpenAppend after manifest damage: %v", err)
			}
			if n != 97 {
				t.Fatalf("OpenAppend rows=%d, want 97", n)
			}
			if err := w.WriteAll(all[97:]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			wantBytes, gotBytes := logBytes(t, ref), logBytes(t, path)
			for name, want := range wantBytes {
				if !reflect.DeepEqual(want, gotBytes[name]) {
					t.Fatalf("%s differs from uninterrupted reference", name)
				}
			}
		})
	}
}

// TestSegmentedSealedDamageIsCorruption proves damage to a sealed segment is
// hard corruption (like an interior block of a single-file log), not a
// repairable tear.
func TestSegmentedSealedDamageIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sealed.sharpb")
	writeSegmented(t, path, runRows(40, 3), 10)
	flipByte(t, path, int64(segHeaderLen)) // force manifest rebuild too
	sp := segPath(path, 0)
	st, err := os.Stat(sp)
	if err != nil {
		t.Fatal(err)
	}
	chop(t, sp, st.Size()-9) // tear the *sealed* first segment
	if _, _, _, err := ScanFile(path); err == nil {
		t.Fatal("scan accepted a torn sealed segment")
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("read accepted a torn sealed segment")
	}
}

// TestSegmentedTruncateRows reopens at checkpoints on boundaries and
// interiors of both sealed and active segments: Reopen keeps exactly the
// first n rows, and the writer it returns continues the log.
func TestSegmentedTruncateRows(t *testing.T) {
	all := runRows(40, 3) // 120 rows, ~10-row segments
	for _, n := range []int{120, 113, 100, 60, 33, 30, 12, 0} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cut.sharpb")
			writeSegmented(t, path, all, 10)
			w, got, _, err := Reopen(path, n, Options{FlushEvery: 1, SegmentRows: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all[:n], got) && n > 0 {
				t.Fatalf("got %d rows, want first %d", len(got), n)
			}
			if n == 0 && len(got) != 0 {
				t.Fatalf("got %d rows, want 0", len(got))
			}
			if w.Rows() != n {
				t.Fatalf("writer after cut counts %d rows, want %d", w.Rows(), n)
			}
			// The cut log must remain appendable.
			if err := w.WriteAll(all[n:]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err = ReadFile(path); err != nil || !reflect.DeepEqual(all, got) {
				t.Fatalf("append after cut = (%d rows, %v)", len(got), err)
			}
		})
	}
	t.Run("too-many", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cut.sharpb")
		writeSegmented(t, path, all, 10)
		if _, _, _, err := Reopen(path, len(all)+1, Options{SegmentRows: 10}); err == nil {
			t.Fatal("Reopen past the end succeeded")
		}
	})
}

// TestSegmentedTruncateTrailingRun drops final runs repeatedly, including
// across a seal boundary (unsealing the last sealed segment).
func TestSegmentedTruncateTrailingRun(t *testing.T) {
	all := runRows(8, 3) // 24 rows, segRows=6: run never spans, rolls every 2 runs
	path := filepath.Join(t.TempDir(), "trail.sharpb")
	writeSegmented(t, path, all, 6)
	remaining := len(all)
	for run := 8; run >= 1; run-- {
		rows, dropped, err := TruncateTrailingRun(path)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		remaining -= 3
		if rows != remaining || dropped != run {
			t.Fatalf("run %d: got (rows=%d, dropped=%d), want (%d, %d)", run, rows, dropped, remaining, run)
		}
		got, err := ReadFile(path)
		if err != nil || !reflect.DeepEqual(all[:remaining], got) && remaining > 0 {
			t.Fatalf("run %d: rows after drop = (%d, %v)", run, len(got), err)
		}
	}
	// Empty log: nothing left to drop.
	rows, dropped, err := TruncateTrailingRun(path)
	if err != nil || rows != 0 || dropped != 0 {
		t.Fatalf("empty drop = (%d, %d, %v), want (0, 0, nil)", rows, dropped, err)
	}
}

// TestSegmentedOpenAppendMissingActiveSegment covers the crash window
// between sealing segment N and creating segment N+1.
func TestSegmentedOpenAppendMissingActiveSegment(t *testing.T) {
	all := runRows(12, 2)
	path := filepath.Join(t.TempDir(), "gap.sharpb")
	writeSegmented(t, path, all[:12], 6) // seals segment 0 (run boundary at 12 rows)
	// Remove the active segment, simulating the crash after the manifest
	// write but before the next segment's create.
	if err := os.Remove(segPath(path, segCount(t, path)-1)); err != nil {
		t.Fatal(err)
	}
	m, _, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	sealed := m.sealedRows()
	w, n, err := OpenAppend(path, Options{FlushEvery: 1, SegmentRows: 6})
	if err != nil {
		t.Fatalf("OpenAppend with missing active segment: %v", err)
	}
	if n != sealed {
		t.Fatalf("rows=%d, want %d", n, sealed)
	}
	if err := w.WriteAll(all[n:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(all, got) {
		t.Fatalf("rows after recovery = (%d, %v)", len(got), err)
	}
}

// TestSegmentedEmptyActiveSegment covers the kill -9 window between creating
// a segment and its first buffer flush: the active segment exists but is 0
// bytes (createBinary only buffers the magic). Every read and repair surface
// must treat it like a missing active segment — zero durable rows — and the
// resume flow must recover, not fail on "missing binary magic".
func TestSegmentedEmptyActiveSegment(t *testing.T) {
	all := runRows(12, 2)
	t.Run("after-seal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "empty-active.sharpb")
		writeSegmented(t, path, all[:12], 6) // seals segment 0 at the run boundary
		ap := segPath(path, segCount(t, path)-1)
		if err := os.WriteFile(ap, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := loadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		sealed := m.sealedRows()
		wantLast := m.entries[len(m.entries)-1].lastRun

		rows, lastRun, torn, err := ScanFile(path)
		if err != nil || rows != sealed || lastRun != wantLast || torn {
			t.Fatalf("ScanFile = (%d, %d, %v, %v), want (%d, %d, false, nil)", rows, lastRun, torn, err, sealed, wantLast)
		}
		got, err := ReadFile(path)
		if err != nil || !reflect.DeepEqual(all[:sealed], got) {
			t.Fatalf("ReadFile = (%d rows, %v), want the %d sealed rows", len(got), err, sealed)
		}
		var streamed []Row
		if err := StreamFile(path, func(batch []Row) error {
			streamed = append(streamed, batch...)
			return nil
		}); err != nil || !reflect.DeepEqual(all[:sealed], streamed) {
			t.Fatalf("StreamFile = (%d rows, %v), want the %d sealed rows", len(streamed), err, sealed)
		}
		w, kept, _, err := Reopen(path, sealed, Options{FlushEvery: 1, SegmentRows: 6})
		if err != nil || !reflect.DeepEqual(all[:sealed], kept) {
			t.Fatalf("Reopen(%d) = (%d rows, %v), want the %d sealed rows", sealed, len(kept), err, sealed)
		}
		n := len(kept)
		if err := w.WriteAll(all[n:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Byte-identity with an uninterrupted write, as in the missing-segment
		// recovery test.
		ref := filepath.Join(t.TempDir(), "ref.sharpb")
		writeSegmented(t, ref, all, 6)
		wantBytes, gotBytes := logBytes(t, ref), logBytes(t, path)
		for name, want := range wantBytes {
			if !reflect.DeepEqual(want, gotBytes[name]) {
				t.Fatalf("%s differs from uninterrupted reference", name)
			}
		}
	})
	t.Run("trailing-run-unseals", func(t *testing.T) {
		// With an empty active segment the trailing run lives in the last
		// sealed segment; TruncateTrailingRun must unseal and cut there.
		path := filepath.Join(t.TempDir(), "empty-trail.sharpb")
		writeSegmented(t, path, all[:12], 6)
		ap := segPath(path, segCount(t, path)-1)
		if err := os.WriteFile(ap, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		// Sealed segment 0 holds runs 1-3 (6 rows): the drop unseals it and
		// cuts run 3, leaving 4 rows.
		rows, dropped, err := TruncateTrailingRun(path)
		if err != nil || rows != 4 || dropped != 3 {
			t.Fatalf("TruncateTrailingRun = (%d, %d, %v), want (4, 3, nil)", rows, dropped, err)
		}
		if got, err := ReadFile(path); err != nil || !reflect.DeepEqual(all[:4], got) {
			t.Fatalf("rows after drop = (%d, %v)", len(got), err)
		}
	})
	t.Run("first-segment", func(t *testing.T) {
		// Crash before anything was flushed at all: manifest with zero sealed
		// entries next to a 0-byte 0000.sharpb.
		path := filepath.Join(t.TempDir(), "empty-first.sharpb")
		writeSegmented(t, path, nil, 6)
		ap := segPath(path, 0)
		if err := os.WriteFile(ap, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, lastRun, torn, err := ScanFile(path); rows != 0 || lastRun != 0 || torn || err != nil {
			t.Fatalf("ScanFile = (%d, %d, %v, %v), want (0, 0, false, nil)", rows, lastRun, torn, err)
		}
		if got, err := ReadFile(path); len(got) != 0 || err != nil {
			t.Fatalf("ReadFile = (%d rows, %v), want empty", len(got), err)
		}
		if rows, dropped, err := TruncateTrailingRun(path); rows != 0 || dropped != 0 || err != nil {
			t.Fatalf("TruncateTrailingRun = (%d, %d, %v), want (0, 0, nil)", rows, dropped, err)
		}
		w, n, err := OpenAppend(path, Options{FlushEvery: 1, SegmentRows: 6})
		if err != nil || n != 0 {
			t.Fatalf("OpenAppend = (%d, %v), want (0, nil)", n, err)
		}
		if err := w.WriteAll(all); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadFile(path); err != nil || !reflect.DeepEqual(all, got) {
			t.Fatalf("rows after recovery = (%d, %v)", len(got), err)
		}
	})
}

// TestSegmentedMissingSealedSegmentIsError proves a deleted *sealed* segment
// is hard corruption on every read surface, mapped and streaming: no reader
// may silently return a partial result.
func TestSegmentedMissingSealedSegmentIsError(t *testing.T) {
	all := runRows(40, 3)
	path := filepath.Join(t.TempDir(), "gone.sharpb")
	writeSegmented(t, path, all, 10)
	if err := os.Remove(segPath(path, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a missing sealed segment")
	}
	if err := StreamFile(path, func([]Row) error { return nil }); err == nil {
		t.Fatal("StreamFile accepted a missing sealed segment")
	}
	t.Run("nommap", func(t *testing.T) {
		t.Setenv(NoMmapEnv, "1")
		if _, err := ReadFile(path); err == nil {
			t.Fatal("ReadFile (no mmap) accepted a missing sealed segment")
		}
	})
}

// TestManifestEncodeParseRoundTrip pins the manifest wire format.
func TestManifestEncodeParseRoundTrip(t *testing.T) {
	m := &segManifest{segRows: 1 << 20, entries: []segEntry{
		{rows: 10, lastRun: 4, runStart: 8, bytes: 900},
		{rows: 12, lastRun: 9, runStart: 10, bytes: 1100},
	}}
	got, err := parseManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}
	for _, hurt := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-1] },
		func(b []byte) []byte { b[9]++; return b },              // crc
		func(b []byte) []byte { b[len(b)-3] ^= 0xff; return b }, // payload
		func(b []byte) []byte { b[0] = 'X'; return b },          // magic
		func(b []byte) []byte { return nil },
	} {
		if _, err := parseManifest(hurt(encodeManifest(m))); err == nil {
			t.Fatal("damaged manifest accepted")
		}
	}
}

// TestSegmentedReadersDuringRoll reads a segmented log from several
// goroutines while a writer appends it run by run: segments roll every few
// runs, each roll replaces the manifest, and halfway the writer closes and
// reopens the log with OpenAppend. Every ReadFile, StreamFile and ScanFile
// must succeed and see a prefix of the final rows that never shrinks from
// one read to the next.
func TestSegmentedReadersDuringRoll(t *testing.T) {
	const runs, perRun = 240, 3
	all := runRows(runs, perRun)
	path := filepath.Join(t.TempDir(), "live.sharpb")
	o := Options{FlushEvery: 1, SegmentRows: 10}
	w, err := CreateDurable(path, o)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var got []Row
				var n int
				var err error
				switch (reader + i) % 3 {
				case 0:
					got, err = ReadFile(path)
					n = len(got)
				case 1:
					err = StreamFile(path, func(batch []Row) error {
						got = append(got, batch...)
						return nil
					})
					n = len(got)
				case 2:
					n, _, _, err = ScanFile(path)
				}
				if err != nil {
					t.Errorf("reader %d, read %d: %v", reader, i, err)
					return
				}
				if n < seen || n > len(all) {
					t.Errorf("reader %d, read %d: %d rows after %d (log of %d)", reader, i, n, seen, len(all))
					return
				}
				if got != nil && !reflect.DeepEqual(got, all[:n]) {
					t.Errorf("reader %d, read %d: the %d rows read are not a prefix of the log", reader, i, n)
					return
				}
				seen = n
			}
		}()
	}

	for run := 0; run < runs; run++ {
		if run == runs/2 {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w, _, err = OpenAppend(path, o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteAll(all[run*perRun : (run+1)*perRun]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if n := segCount(t, path); n < runs*perRun/o.SegmentRows/2 {
		t.Fatalf("%d segments; want the writer to have rolled many times", n)
	}
	got, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(got, all) {
		t.Fatalf("final read: %d rows, %v; want all %d", len(got), err, len(all))
	}
}
