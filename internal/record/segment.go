// Segmented binary logs. A single-file .sharpb log makes every truncation,
// repair, and resume touch (or rewrite) one ever-growing file; at the 10⁸-row
// scale the ROADMAP targets, that means multi-gigabyte scans for an
// operation that only concerns the last few thousand rows. A segmented log
// replaces the file at <path> with a small CRC-guarded manifest and rolls
// the row stream into self-contained segments under <path>.seg/:
//
//	manifest := magic "SHARPSG1" | crc u32 | payload      (at <path>)
//	payload  := segRows u64 | count u64 |
//	            count × (rows u64 | lastRun u64 | runStart u64 | bytes u64)
//	segment  := <path>.seg/NNNN.sharpb                    (NNNN = %04d)
//
// All integers little-endian; crc is CRC-32 (IEEE) over the payload. The
// manifest lists only *sealed* segments (0..count-1), which are immutable;
// segment NNNN=count is the active tail, examined and repaired by the
// ordinary single-file machinery (repair scan, torn-tail truncate, reopen).
// Each segment is a complete .sharpb file with its own magic and a re-based
// dictionary, so any segment decodes in isolation.
//
// Segments roll only at run transitions once the active segment reaches
// segRows rows: a run never spans segments, so TruncateTrailingRun, Reopen
// and crash repair touch exactly one segment file, and the manifest is rewritten
// (atomically, via fsx) only when a segment seals. A damaged manifest is
// rebuilt by scanning the segments: a torn or corrupt *sealed* segment is
// hard corruption (exactly like an interior block of a single-file log),
// while the last segment stays active and keeps its repairability.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sharp/internal/fsx"
)

const (
	segMagic     = "SHARPSG1" // 8 bytes, same length as binMagic
	segDirSuffix = ".seg"
	// defaultSegmentRows bounds segments of a log whose manifest predates a
	// configured roll size (or was rebuilt without one): ~4M rows keeps a
	// segment near 256 MiB at 68 B/row.
	defaultSegmentRows = 4 << 20

	segEntryLen  = 32
	segHeaderLen = 8 + 4 + 16 // magic + crc + (segRows, count)
)

func segDir(path string) string { return path + segDirSuffix }

func segPath(path string, i int) string {
	return filepath.Join(segDir(path), fmt.Sprintf("%04d%s", i, BinaryExt))
}

func hasSegDir(path string) bool {
	st, err := os.Stat(segDir(path))
	return err == nil && st.IsDir()
}

// activeSegMissing reports whether the active segment at sp is absent or a
// 0-byte crash artifact. createBinary only buffers the magic, so a kill -9
// between segment creation and the first flush leaves an empty file; like the
// single-file emptyArtifact case, it holds zero durable rows and every
// surface treats it exactly like a segment that never came to exist.
func activeSegMissing(sp string) bool {
	st, err := os.Stat(sp)
	return os.IsNotExist(err) || (err == nil && st.Size() == 0)
}

// segEntry describes one sealed (immutable) segment.
type segEntry struct {
	rows     int   // data rows in the segment
	lastRun  int   // run index of its final row
	runStart int   // local row index where that final run begins
	bytes    int64 // segment file length (sealed segments are never torn)
}

// segManifest is the decoded manifest of a segmented log.
type segManifest struct {
	segRows int
	entries []segEntry
}

// sealedRows is the total row count across sealed segments.
func (m *segManifest) sealedRows() int {
	n := 0
	for _, e := range m.entries {
		n += e.rows
	}
	return n
}

// encodeManifest renders the manifest wire format.
func encodeManifest(m *segManifest) []byte {
	buf := make([]byte, segHeaderLen+segEntryLen*len(m.entries))
	copy(buf, segMagic)
	le := binary.LittleEndian
	p := buf[12:]
	le.PutUint64(p[0:], uint64(m.segRows))
	le.PutUint64(p[8:], uint64(len(m.entries)))
	for i, e := range m.entries {
		q := p[16+segEntryLen*i:]
		le.PutUint64(q[0:], uint64(e.rows))
		le.PutUint64(q[8:], uint64(int64(e.lastRun)))
		le.PutUint64(q[16:], uint64(e.runStart))
		le.PutUint64(q[24:], uint64(e.bytes))
	}
	le.PutUint32(buf[8:], crc32.Checksum(p, binCRC))
	return buf
}

// parseManifest decodes and validates manifest bytes. Any inconsistency —
// short file, bad magic, checksum mismatch, implausible counts — is an
// error; callers respond by rebuilding from the segments themselves.
func parseManifest(data []byte) (*segManifest, error) {
	if len(data) < segHeaderLen || string(data[:8]) != segMagic {
		return nil, errors.New("record: bad segment manifest magic")
	}
	le := binary.LittleEndian
	p := data[12:]
	if le.Uint32(data[8:]) != crc32.Checksum(p, binCRC) {
		return nil, errors.New("record: segment manifest checksum mismatch")
	}
	segRows := int64(le.Uint64(p[0:]))
	count := int64(le.Uint64(p[8:]))
	if segRows < 0 || count < 0 || count > int64(len(p)) || int64(len(p)) != 16+segEntryLen*count {
		return nil, errors.New("record: implausible segment manifest")
	}
	m := &segManifest{segRows: int(segRows)}
	for i := int64(0); i < count; i++ {
		q := p[16+segEntryLen*i:]
		e := segEntry{
			rows:     int(int64(le.Uint64(q[0:]))),
			lastRun:  int(int64(le.Uint64(q[8:]))),
			runStart: int(int64(le.Uint64(q[16:]))),
			bytes:    int64(le.Uint64(q[24:])),
		}
		if e.rows < 0 || e.runStart < 0 || (e.rows > 0 && e.runStart >= e.rows) || e.bytes < int64(len(binMagic)) {
			return nil, errors.New("record: implausible segment manifest entry")
		}
		m.entries = append(m.entries, e)
	}
	return m, nil
}

// writeManifest atomically replaces the manifest at path.
func writeManifest(path string, m *segManifest) error {
	return fsx.WriteFile(path, encodeManifest(m), 0o644)
}

// loadManifest reads the manifest at path, rebuilding it from the segment
// directory when the bytes are damaged. rebuilt tells writer-side callers to
// persist the repair; read-only callers leave the damage in place.
func loadManifest(path string) (m *segManifest, rebuilt bool, err error) {
	if data, rerr := os.ReadFile(path); rerr == nil {
		if m, perr := parseManifest(data); perr == nil {
			return m, false, nil
		}
	}
	m, err = rebuildManifest(path)
	return m, true, err
}

// rebuildManifest reconstructs the manifest by scanning the segment
// directory: every segment but the last must scan clean and untorn (sealed
// segments are immutable, so damage there is hard corruption), and the last
// segment is left active.
func rebuildManifest(path string) (*segManifest, error) {
	des, err := os.ReadDir(segDir(path))
	if err != nil {
		return nil, fmt.Errorf("record: segmented log %s: %w", path, err)
	}
	var idxs []int
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, BinaryExt) {
			continue
		}
		num := strings.TrimSuffix(name, BinaryExt)
		if len(num) != 4 {
			continue
		}
		i, aerr := strconv.Atoi(num)
		if aerr != nil {
			continue
		}
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for k, i := range idxs {
		if i != k {
			return nil, fmt.Errorf("record: segmented log %s: segment %04d missing", path, k)
		}
	}
	m := &segManifest{}
	for k := 0; k+1 < len(idxs); k++ { // seal all but the last
		sp := segPath(path, k)
		sc, serr := checkLogFile(sp)
		if serr != nil {
			return nil, fmt.Errorf("record: sealed segment %s: %v", filepath.Base(sp), serr)
		}
		if sc.torn {
			return nil, fmt.Errorf("record: sealed segment %s: torn interior segment", filepath.Base(sp))
		}
		m.entries = append(m.entries, segEntry{rows: sc.rows, lastRun: sc.lastRun, runStart: sc.runStartRows, bytes: sc.dataEnd})
	}
	return m, nil
}

// ---- read-side dispatch targets ----

// scanSegmented is the ScanFile implementation for segmented logs: the
// manifest answers for sealed segments in O(1); only the active segment is
// examined.
func scanSegmented(path string) (rows, lastRun int, torn bool, err error) {
	m, _, err := loadManifest(path)
	if err != nil {
		return 0, 0, false, err
	}
	var ar, alr int
	var atorn bool
	if ap := segPath(path, len(m.entries)); !activeSegMissing(ap) {
		if ar, alr, atorn, err = scanBinaryFile(ap); err != nil {
			if !os.IsNotExist(err) {
				return 0, 0, false, err
			}
			ar, alr, atorn = 0, 0, false
		}
	}
	lastRun = alr
	if ar == 0 && len(m.entries) > 0 {
		lastRun = m.entries[len(m.entries)-1].lastRun
	}
	return m.sealedRows() + ar, lastRun, atorn, nil
}

// readSegmented decodes a whole segmented log, appending to dst. Sealed
// segments must decode cleanly to exactly their manifest row count; a torn
// tail in the active segment is silently dropped, as in single-file
// ReadFile.
func readSegmented(path string, dst []Row) ([]Row, error) {
	m, _, err := loadManifest(path)
	if err != nil {
		return nil, err
	}
	if total := len(dst) + m.sealedRows(); cap(dst) < total {
		grown := make([]Row, len(dst), total+total/8+binBlockRows)
		copy(grown, dst)
		dst = grown
	}
	if dst, err = readSealed(path, m, dst); err != nil {
		return nil, err
	}
	if ap := segPath(path, len(m.entries)); !activeSegMissing(ap) {
		_, rows, err := readLogFile(ap, dst)
		if os.IsNotExist(err) {
			return dst, nil
		}
		return rows, err
	}
	return dst, nil
}

// readSealed decodes the sealed segments of m, appending to dst. Each must
// decode cleanly to exactly its manifest row count.
func readSealed(path string, m *segManifest, dst []Row) ([]Row, error) {
	for i, e := range m.entries {
		sc, rows, err := readLogFile(segPath(path, i), dst)
		if err != nil {
			return nil, err
		}
		if sc.torn || sc.rows != e.rows {
			return nil, fmt.Errorf("record: sealed segment %04d%s has %d rows (torn=%v), manifest says %d",
				i, BinaryExt, sc.rows, sc.torn, e.rows)
		}
		dst = rows
	}
	return dst, nil
}

// streamSegmented is the StreamFile implementation for segmented logs.
func streamSegmented(path string, sink func([]Row) error) error {
	m, _, err := loadManifest(path)
	if err != nil {
		return err
	}
	for i, e := range m.entries {
		sc, err := streamLogFile(segPath(path, i), sink)
		if err != nil {
			return err
		}
		if sc.torn || sc.rows != e.rows {
			return fmt.Errorf("record: sealed segment %04d%s has %d rows (torn=%v), manifest says %d",
				i, BinaryExt, sc.rows, sc.torn, e.rows)
		}
	}
	if ap := segPath(path, len(m.entries)); !activeSegMissing(ap) {
		if _, err := streamLogFile(ap, sink); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// ---- writer ----

// segWriter appends rows to a segmented log: a binWriter on the active
// segment plus the manifest of sealed ones. Rolls happen only at run
// transitions once the active segment holds at least segRows rows, so a run
// never spans segments.
type segWriter struct {
	path    string
	opts    Options
	segRows int
	m       *segManifest
	bw      *binWriter
	local   int // rows in the active segment
	lastRun int // run index of the most recently appended row
}

// createSegmented starts a fresh segmented log at path (replacing any
// previous log or segment directory there).
func createSegmented(path string, o Options) (*Writer, error) {
	segRows := o.SegmentRows
	if segRows <= 0 {
		segRows = defaultSegmentRows
	}
	if err := os.RemoveAll(segDir(path)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(segDir(path), 0o755); err != nil {
		return nil, err
	}
	m := &segManifest{segRows: segRows}
	if err := writeManifest(path, m); err != nil {
		return nil, err
	}
	bw, err := createBinary(segPath(path, 0), o)
	if err != nil {
		return nil, err
	}
	return &Writer{seg: &segWriter{path: path, opts: o, segRows: segRows, m: m, bw: bw}, opts: o}, nil
}

// add buffers one row, sealing the active segment first when it is full and
// the row starts a new run.
func (w *segWriter) add(r *Row) error {
	if w.local >= w.segRows && r.Run != w.lastRun {
		if err := w.roll(); err != nil {
			return err
		}
	}
	if err := w.bw.add(r); err != nil {
		return err
	}
	w.local++
	w.lastRun = r.Run
	return nil
}

// roll seals the active segment and starts the next one. The ordering is
// crash-safe: the segment is completed (flush + close)
// before the manifest records it, and the manifest records it before the
// next segment exists — a crash between any two steps leaves a log that
// OpenAppend repairs without losing rows.
func (w *segWriter) roll() error {
	if err := w.bw.close(); err != nil {
		return err
	}
	w.m.entries = append(w.m.entries, segEntry{
		rows: w.bw.rows, lastRun: w.bw.lastRun, runStart: w.bw.runStartRows, bytes: w.bw.off,
	})
	if err := writeManifest(w.path, w.m); err != nil {
		return err
	}
	bw, err := createBinary(segPath(w.path, len(w.m.entries)), w.opts)
	if err != nil {
		return err
	}
	w.bw = bw
	w.local = 0
	return nil
}

// close closes the active segment; the manifest is already current (it only
// changes when a segment seals).
func (w *segWriter) close() error { return w.bw.close() }

// appendManifest loads the manifest of the segmented log at path for a
// writer with options o: it settles the roll size and persists the manifest
// when it was rebuilt or the roll size changed. The manifest must describe
// how the writer actually rolls (a rebuilt manifest records segRows 0), so
// a repaired-and-resumed log stays byte-identical to an uninterrupted one.
func appendManifest(path string, o Options) (*segManifest, error) {
	m, rebuilt, err := loadManifest(path)
	if err != nil {
		return nil, err
	}
	segRows := o.SegmentRows
	if segRows <= 0 {
		segRows = m.segRows
	}
	if segRows <= 0 {
		segRows = defaultSegmentRows
	}
	if m.segRows != segRows {
		m.segRows = segRows
		rebuilt = true
	}
	if rebuilt {
		if err := writeManifest(path, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// appendWriter wraps the writer bw of the active segment into a Writer
// continuing the segmented log of manifest m.
func appendWriter(path string, o Options, m *segManifest, bw *binWriter) *Writer {
	lastRun := bw.lastRun
	if bw.rows == 0 && len(m.entries) > 0 {
		lastRun = m.entries[len(m.entries)-1].lastRun
	}
	sw := &segWriter{path: path, opts: o, segRows: m.segRows, m: m, bw: bw, local: bw.rows, lastRun: lastRun}
	return &Writer{seg: sw, opts: o, wroteHeader: true, rows: m.sealedRows() + bw.rows}
}

// createActive starts the active segment ap empty: it never came to exist
// (a crash between sealing a segment and creating its successor) or is a
// 0-byte artifact (a crash before its first buffer flush), so no rows of it
// were durable.
func createActive(path, ap string, o Options) (*binWriter, error) {
	if err := os.MkdirAll(segDir(path), 0o755); err != nil {
		return nil, err
	}
	return createBinary(ap, o)
}

// openAppendSegmented opens a segmented log for continuation: it repairs the
// manifest if damaged, then validates and repairs only the active segment.
func openAppendSegmented(path string, o Options) (*Writer, int, error) {
	m, err := appendManifest(path, o)
	if err != nil {
		return nil, 0, err
	}
	ap := segPath(path, len(m.entries))
	var bw *binWriter
	if activeSegMissing(ap) {
		bw, err = createActive(path, ap, o)
	} else {
		bw, err = openAppendBinaryCore(ap, o)
	}
	if err != nil {
		return nil, 0, err
	}
	w := appendWriter(path, o, m, bw)
	return w, w.rows, nil
}

// unseal makes segment k of m the active one: every later segment is
// deleted, and the manifest lists only the segments before k.
func unseal(path string, m *segManifest, k int) error {
	for j := len(m.entries); j > k; j-- {
		os.Remove(segPath(path, j))
	}
	m.entries = m.entries[:k]
	return writeManifest(path, m)
}

// reopenSegmented is Reopen for segmented logs. The cut lands in one
// segment, which gets the one-pass reopen of a single-file log and becomes
// the active segment; the sealed segments before it are read, and those
// after it are dropped. A checkpoint inside a sealed segment unseals it.
// Without a checkpoint the trailing run lies in the active segment or, when
// that holds no rows, is the final run of the last sealed segment, which is
// unsealed. As in the cut-read-append sequence, the cut comes first.
func reopenSegmented(path string, checkpoint int, o Options) (w *Writer, rows []Row, droppedRun int, err error) {
	m, err := appendManifest(path, o)
	if err != nil {
		return nil, nil, 0, err
	}
	// k is the segment the cut lands in, n the cut within it.
	k, n := len(m.entries), checkpoint
	if n >= 0 {
		for i, e := range m.entries {
			if n < e.rows {
				k = i
				break
			}
			n -= e.rows
		}
	}
	if k < len(m.entries) {
		if err := unseal(path, m, k); err != nil {
			return nil, nil, 0, err
		}
	}
	// The sealed rows go in front of the kept segment's, which need at
	// most one slot per 68 bytes of the segment.
	sp, prefix, room := segPath(path, k), m.sealedRows(), 0
	if st, err := os.Stat(sp); err == nil {
		room = int(st.Size() / binRowBytes)
	}
	rows = make([]Row, prefix, prefix+room)
	var bw *binWriter
	if !activeSegMissing(sp) {
		if bw, rows, droppedRun, err = reopenBinaryCore(sp, n, o, rows); err != nil {
			return nil, nil, 0, err
		}
	}
	if checkpoint < 0 && k > 0 && (bw == nil || bw.rows == 0 && droppedRun == 0) {
		// The active segment holds no rows: unseal the last sealed segment
		// and drop its final run instead.
		if bw != nil {
			bw.f.Close()
		}
		k--
		prefix -= m.entries[k].rows
		if err := unseal(path, m, k); err != nil {
			return nil, nil, 0, err
		}
		sp = segPath(path, k)
		if bw, rows, droppedRun, err = reopenBinaryCore(sp, -1, o, rows[:prefix]); err != nil {
			return nil, nil, 0, err
		}
	}
	if bw == nil {
		if n > 0 {
			return nil, nil, 0, fmt.Errorf("record: truncate to %d rows: only %d available", checkpoint, prefix)
		}
		if bw, err = createActive(path, sp, o); err != nil {
			return nil, nil, 0, err
		}
	}
	if _, err := readSealed(path, m, rows[:0:prefix]); err != nil {
		bw.f.Close()
		return nil, nil, 0, err
	}
	return appendWriter(path, o, m, bw), rows, droppedRun, nil
}

// truncateTrailingRunSegmented drops the final (possibly incomplete) run of
// a segmented log. Runs never span segments, so the cut touches exactly one
// segment: the active one, or — when the active segment holds no rows — the
// last sealed segment, which is unsealed first. The active segment is
// repair-scanned once: its trailing run is cut in the same pass that finds
// whether it holds any rows.
func truncateTrailingRunSegmented(path string) (rows, droppedRun int, err error) {
	m, rebuilt, err := loadManifest(path)
	if err != nil {
		return 0, 0, err
	}
	if rebuilt {
		if err := writeManifest(path, m); err != nil {
			return 0, 0, err
		}
	}
	ap := segPath(path, len(m.entries))
	local := 0
	if !activeSegMissing(ap) {
		if local, droppedRun, err = truncateTrailingRunBinary(ap); err != nil && !os.IsNotExist(err) {
			return 0, 0, err
		}
	}
	if local > 0 || droppedRun != 0 || len(m.entries) == 0 {
		return m.sealedRows() + local, droppedRun, nil
	}
	last := len(m.entries) - 1
	if err := unseal(path, m, last); err != nil {
		return 0, 0, err
	}
	local, droppedRun, err = truncateTrailingRunBinary(segPath(path, last))
	if err != nil {
		return 0, 0, err
	}
	return m.sealedRows() + local, droppedRun, nil
}
