// Binary columnar log format (".sharpb"). The CSV log pays per-row strconv
// formatting across 14 text columns and O(rows) re-parsing on every resume;
// the binary format stores the same tidy rows as fixed-width column blocks
// with per-block CRC-32 checksums and a file-wide string dictionary, so
// recording is a memcpy-shaped encode and crash repair checks blocks in
// place without decoding the rows it keeps. The format lives entirely behind
// the existing Writer / ScanFile / OpenAppend / TruncateTrailingRun /
// ReadFile / Reopen surfaces: the crash-repair semantics (torn tail vs
// interior corruption) mirror the CSV scanner exactly, so core.Launcher,
// Resume, and sharp-serve work unchanged. This file holds the format, the
// writer, the cut and the one-pass reopen; every read goes through the frame
// walk in fastread.go.
//
// On-disk layout (all integers little-endian; see DESIGN.md §12):
//
//	file   := magic "SHARPB1\n" block*
//	block  := frame payload
//	frame  := kind u8 | rows u32 | firstRun i32 | lastRun i32 |
//	          payloadLen u32 | crc u32          (21 bytes)
//	crc    := CRC-32 (IEEE) over frame[0:17] ++ payload
//
// A dict block (kind 0x01) introduces new strings — payload is a sequence of
// (len u32, bytes) entries; ids are assigned file-wide in order of first
// appearance, and every dict block precedes the first data block that
// references its entries. A data block (kind 0x02) holds n rows as columns:
// sec i64, nsec u32, day i32, run i32, instance i32, attempt i32, value
// (float64 bits) u64, then eight u32 dictionary-id columns (experiment,
// workload, backend, machine, metric, unit, status, error) — 68 bytes/row.
//
// The log is the only record of its own state; nothing beside it caches a
// scan. Resuming a campaign (Reopen) reads the log once, cuts it using the
// rows that read decoded, and positions the writer after them.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sharp/internal/fsx"
)

// Format selects the on-disk log encoding.
type Format int

const (
	// FormatAuto picks the format from the path extension: ".sharpb" is
	// binary, everything else CSV.
	FormatAuto Format = iota
	// FormatCSV is the tidy-data CSV log (the historical format).
	FormatCSV
	// FormatBinary is the columnar ".sharpb" log.
	FormatBinary
)

// BinaryExt is the file extension of binary columnar logs.
const BinaryExt = ".sharpb"

// formatSegmented marks a segmented binary log: a "SHARPSG1" manifest at the
// log path next to a <path>.seg/ directory of self-contained .sharpb
// segments. It is internal — callers opt in through Options.SegmentRows and
// readers detect it by sniffing, never via the Format flag.
const formatSegmented Format = -1

// ParseFormat parses a --format flag value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatAuto, nil
	case "csv":
		return FormatCSV, nil
	case "binary", "sharpb", "bin":
		return FormatBinary, nil
	}
	return FormatAuto, fmt.Errorf("record: unknown format %q (want csv or binary)", s)
}

// String returns the flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatBinary:
		return "binary"
	}
	return "auto"
}

// FormatForPath resolves FormatAuto by extension.
func FormatForPath(path string) Format {
	if strings.EqualFold(filepath.Ext(path), BinaryExt) {
		return FormatBinary
	}
	return FormatCSV
}

// resolve picks the concrete format for a log created at path.
func (o Options) resolve(path string) Format {
	if o.Format != FormatAuto {
		return o.Format
	}
	return FormatForPath(path)
}

// Wire-format constants.
const (
	binMagic    = "SHARPB1\n" // 8 bytes
	binFrameLen = 21          // kind + rows + firstRun + lastRun + payloadLen + crc
	binRowBytes = 68          // per-row bytes in a data-block payload
	binKindDict = 0x01
	binKindData = 0x02
	// binBlockRows caps rows per data block so a block payload stays cache-
	// friendly (~272 KiB) and a mid-file seek never decodes more than one
	// block past its target.
	binBlockRows = 4096
	// binMaxPayload is the structural sanity cap on a declared payload
	// length; a frame claiming more is corruption, not data.
	binMaxPayload = 64 << 20
)

var binCRC = crc32.MakeTable(crc32.IEEE)

// binStringCols lists the dictionary-encoded columns in payload order.
func (r *Row) binStrings() [8]string {
	return [8]string{r.Experiment, r.Workload, r.Backend, r.Machine, r.Metric, r.Unit, r.Status, r.Error}
}

// errSniffShort reports a file too short to hold any format magic (including
// an empty file — the artifact a crash before the first buffer flush leaves
// behind). It is distinguishable from genuine I/O failure so OpenAppend can
// repair the empty-file case instead of hard-failing; every other caller
// falls through to the CSV path, keeping the historical error messages.
var errSniffShort = errors.New("record: file too short to sniff format")

// sniffFormat reports the format of an existing log file by its leading
// magic bytes. A damaged segmented manifest is still recognized by its
// sibling <path>.seg directory, so manifest corruption stays repairable.
func sniffFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) && hasSegDir(path) {
			// The manifest itself is gone but its segment directory survives:
			// still a segmented log, rebuilt by scanning the segments.
			return formatSegmented, nil
		}
		return FormatCSV, err
	}
	defer f.Close()
	var b [len(binMagic)]byte
	n, err := io.ReadFull(f, b[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return FormatCSV, fmt.Errorf("record: %w", err)
	}
	switch {
	case n == len(binMagic) && string(b[:]) == binMagic:
		return FormatBinary, nil
	case n == len(segMagic) && string(b[:]) == segMagic:
		return formatSegmented, nil
	case hasSegDir(path):
		// The manifest bytes are damaged (torn, zeroed, or overwritten) but
		// the segment directory survives: still a segmented log, rebuilt by
		// scanning its segments.
		return formatSegmented, nil
	case n < len(binMagic):
		return FormatCSV, errSniffShort
	}
	return FormatCSV, nil
}

// sniffRead is sniffFormat for read-side callers, where a too-short file is
// simply not binary (the CSV reader produces the historical diagnostics).
func sniffRead(path string) (Format, error) {
	format, err := sniffFormat(path)
	if errors.Is(err, errSniffShort) {
		return format, nil
	}
	return format, err
}

// emptyArtifact reports whether path is a 0-byte file — the kill -9 window
// between creating a log and pushing its first bytes (a binary log's magic,
// a CSV log's header, which is written with the first row). No row was ever
// durable, whatever the format: read and repair surfaces treat it as an
// empty log (zero rows, nothing to truncate) and OpenAppend recreates it.
func emptyArtifact(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Size() == 0
}

// checkRowRange rejects rows whose integer fields cannot round-trip through
// the 32-bit on-disk columns (never produced by SHARP itself).
func checkRowRange(r Row) error {
	for _, v := range [...]int{r.Day, r.Run, r.Instance, r.Attempt} {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("record: field value %d out of binary range", v)
		}
	}
	if ns := r.Timestamp.Nanosecond(); ns < 0 || ns >= 1e9 {
		return fmt.Errorf("record: bad timestamp nanoseconds %d", ns)
	}
	return nil
}

// binWriter appends rows to a binary columnar log. Rows are decomposed into
// per-column scratch buffers on add (one dictionary lookup per string,
// cached per column for the common same-as-last-row case) and serialized
// column by column on emit, so the hot path is sequential stores instead of
// per-row strided writes.
type binWriter struct {
	f    *os.File
	bw   *bufio.Writer
	dict map[string]uint32
	// fresh holds strings interned since the last dict block, in first-
	// appearance order.
	fresh []string
	// lastStr/lastID are a per-column four-entry lookup cache: campaign rows
	// draw most string columns from a handful of values (machines, metrics,
	// units) that repeat or cycle, and equal strings usually share backing,
	// making the compare O(1). Misses fall back to the dictionary map.
	lastStr [8][4]string
	lastID  [8][4]uint32
	lastPos [8]uint8
	// Columnar scratch for the pending block (n valid entries each).
	n    int
	sec  []int64
	nsec []uint32
	day  []int32
	run  []int32
	inst []int32
	att  []int32
	val  []uint64
	ids  []uint32 // 8 per row, row-major
	// payload is the reusable block serialization buffer.
	payload []byte
	// off is the file offset past the last emitted block (== file length
	// once bw is flushed).
	off int64
	// rows / lastRun / runStartRows mirror the CSV scan bookkeeping for the
	// emitted prefix; they feed the segment manifest when a segment seals.
	rows         int
	lastRun      int
	runStartRows int
	sync         bool
}

// newBinWriterCore initializes the dictionary and block scratch around an
// output stream positioned just past the magic. The column buffers hold
// blockRows rows: binBlockRows for a writer that streams an unknown number
// of rows, fewer when the writer will see no more than that many in all.
func newBinWriterCore(bw *bufio.Writer, blockRows int) *binWriter {
	w := &binWriter{
		bw: bw, dict: map[string]uint32{}, off: int64(len(binMagic)),
		sec:  make([]int64, blockRows),
		nsec: make([]uint32, blockRows),
		day:  make([]int32, blockRows),
		run:  make([]int32, blockRows),
		inst: make([]int32, blockRows),
		att:  make([]int32, blockRows),
		val:  make([]uint64, blockRows),
		ids:  make([]uint32, 8*blockRows),
	}
	for c := range w.lastStr {
		for k := range w.lastStr[c] {
			w.lastStr[c][k] = "\x00record:no-such-string" // never matches a real column value
		}
	}
	return w
}

// createBinary opens path for writing (truncating) as a binary log and
// writes the magic.
func createBinary(path string, o Options) (*binWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := newBinWriterCore(bufio.NewWriterSize(f, 1<<16), binBlockRows)
	w.f, w.sync = f, o.Sync
	if _, err := w.bw.WriteString(binMagic); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// intern returns the dictionary id for s, assigning the next id (and noting
// the string for the pending dict block) on first appearance.
func (w *binWriter) intern(s string) uint32 {
	id, ok := w.dict[s]
	if !ok {
		id = uint32(len(w.dict))
		w.dict[s] = id
		w.fresh = append(w.fresh, s)
	}
	return id
}

// lookup returns the dictionary id for column c holding s, consulting the
// four-entry per-column cache before the map.
func (w *binWriter) lookup(c int, s string) uint32 {
	cache := &w.lastStr[c]
	switch s {
	case cache[0]:
		return w.lastID[c][0]
	case cache[1]:
		return w.lastID[c][1]
	case cache[2]:
		return w.lastID[c][2]
	case cache[3]:
		return w.lastID[c][3]
	}
	id := w.intern(s)
	k := w.lastPos[c] & 3
	cache[k], w.lastID[c][k] = s, id
	w.lastPos[c]++
	return id
}

// add buffers one row, emitting a block when the cap is reached. The row is
// passed by pointer purely to keep the per-call copy off the hot path.
func (w *binWriter) add(r *Row) error {
	if r.Day != int(int32(r.Day)) || r.Run != int(int32(r.Run)) ||
		r.Instance != int(int32(r.Instance)) || r.Attempt != int(int32(r.Attempt)) {
		return fmt.Errorf("record: integer field out of binary range in row %+v", *r)
	}
	i := w.n
	// Unix() and Nanosecond() are location-independent; no UTC() needed.
	w.sec[i] = r.Timestamp.Unix()
	w.nsec[i] = uint32(r.Timestamp.Nanosecond())
	w.day[i] = int32(r.Day)
	w.run[i] = int32(r.Run)
	w.inst[i] = int32(r.Instance)
	w.att[i] = int32(r.Attempt)
	w.val[i] = math.Float64bits(r.Value)
	// Unrolled per-column lookups: building the [8]string column array first
	// would cost a 128-byte copy per row.
	ids := w.ids[8*i : 8*i+8 : 8*i+8]
	ids[0] = w.lookup(0, r.Experiment)
	ids[1] = w.lookup(1, r.Workload)
	ids[2] = w.lookup(2, r.Backend)
	ids[3] = w.lookup(3, r.Machine)
	ids[4] = w.lookup(4, r.Metric)
	ids[5] = w.lookup(5, r.Unit)
	ids[6] = w.lookup(6, r.Status)
	ids[7] = w.lookup(7, r.Error)
	w.n++
	if w.n >= binBlockRows {
		return w.emit()
	}
	return nil
}

// emit writes the pending rows as (optional dict block +) one data block.
// Each column is serialized with a tight sequential loop.
func (w *binWriter) emit() error {
	n := w.n
	if n == 0 {
		return nil
	}
	if len(w.fresh) > 0 {
		var dp []byte
		for _, s := range w.fresh {
			dp = binary.LittleEndian.AppendUint32(dp, uint32(len(s)))
			dp = append(dp, s...)
		}
		if err := w.writeBlock(binKindDict, len(w.fresh), 0, 0, dp); err != nil {
			return err
		}
		w.fresh = w.fresh[:0]
	}
	size := n * binRowBytes
	if cap(w.payload) < size {
		w.payload = make([]byte, size)
	}
	p := w.payload[:size]
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		le.PutUint64(p[8*i:], uint64(w.sec[i]))
	}
	putU32Col(p[8*n:12*n], w.nsec[:n])
	putI32Col(p[12*n:16*n], w.day[:n])
	putI32Col(p[16*n:20*n], w.run[:n])
	putI32Col(p[20*n:24*n], w.inst[:n])
	putI32Col(p[24*n:28*n], w.att[:n])
	for i := 0; i < n; i++ {
		le.PutUint64(p[28*n+8*i:], w.val[i])
	}
	for c := 0; c < 8; c++ {
		col := p[(36+4*c)*n : (40+4*c)*n]
		ids := w.ids[: 8*n : 8*n]
		for i := 0; i < n; i++ {
			le.PutUint32(col[4*i:], ids[8*i+c])
		}
	}
	if err := w.writeBlock(binKindData, n, int(w.run[0]), int(w.run[n-1]), p); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if r := int(w.run[i]); r != w.lastRun {
			w.lastRun = r
			w.runStartRows = w.rows
		}
		w.rows++
	}
	w.n = 0
	return nil
}

// putU32Col serializes a uint32 column little-endian into dst (len 4*n).
func putU32Col(dst []byte, col []uint32) {
	for i, v := range col {
		binary.LittleEndian.PutUint32(dst[4*i:], v)
	}
}

// putI32Col serializes an int32 column little-endian into dst (len 4*n).
func putI32Col(dst []byte, col []int32) {
	for i, v := range col {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// writeBlock frames and writes one block.
func (w *binWriter) writeBlock(kind byte, rows, firstRun, lastRun int, payload []byte) error {
	var frame [binFrameLen]byte
	frame[0] = kind
	binary.LittleEndian.PutUint32(frame[1:], uint32(rows))
	binary.LittleEndian.PutUint32(frame[5:], uint32(int32(firstRun)))
	binary.LittleEndian.PutUint32(frame[9:], uint32(int32(lastRun)))
	binary.LittleEndian.PutUint32(frame[13:], uint32(len(payload)))
	crc := crc32.Update(crc32.Update(0, binCRC, frame[:17]), binCRC, payload)
	binary.LittleEndian.PutUint32(frame[17:], crc)
	if _, err := w.bw.Write(frame[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.off += int64(binFrameLen + len(payload))
	return nil
}

// push hands the emitted blocks to the OS (and optionally to disk, per the
// Sync option).
func (w *binWriter) push() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// close emits the pending block, pushes it, and closes the file. The file is
// closed unconditionally; errors are joined.
func (w *binWriter) close() error {
	err := w.emit()
	if err == nil {
		err = w.push()
	}
	return errors.Join(err, w.f.Close())
}

// encodeDataBlock renders rows as a columnar payload using dict for the
// string columns (every string must already be interned).
func encodeDataBlock(rows []Row, dict map[string]uint32) []byte {
	n := len(rows)
	p := make([]byte, n*binRowBytes)
	le := binary.LittleEndian
	for i := range rows {
		r := &rows[i]
		ts := r.Timestamp.UTC()
		le.PutUint64(p[8*i:], uint64(ts.Unix()))
		le.PutUint32(p[8*n+4*i:], uint32(ts.Nanosecond()))
		le.PutUint32(p[12*n+4*i:], uint32(int32(r.Day)))
		le.PutUint32(p[16*n+4*i:], uint32(int32(r.Run)))
		le.PutUint32(p[20*n+4*i:], uint32(int32(r.Instance)))
		le.PutUint32(p[24*n+4*i:], uint32(int32(r.Attempt)))
		le.PutUint64(p[28*n+8*i:], math.Float64bits(r.Value))
		for c, s := range r.binStrings() {
			le.PutUint32(p[36*n+(4*c)*n+4*i:], dict[s])
		}
	}
	return p
}

// decodeBlockInto decodes a columnar payload of n rows into blk (len n),
// validating dict ids and nanosecond ranges and overwriting every field, so
// callers may hand it recycled Row storage: the stream's reused batch, or a
// disjoint window of the slab reader's preallocated destination. Decoding
// runs column by column: each pass streams sequentially through one column
// of the (cache-resident) payload and one field of the rows.
func decodeBlockInto(payload []byte, n int, dict []string, blk []Row) error {
	le := binary.LittleEndian
	for i := range blk {
		nsec := le.Uint32(payload[8*n+4*i:])
		if nsec >= 1e9 {
			return fmt.Errorf("bad nanoseconds %d", nsec)
		}
		blk[i].Timestamp = time.Unix(int64(le.Uint64(payload[8*i:])), int64(nsec)).UTC()
	}
	for i := range blk {
		blk[i].Day = int(int32(le.Uint32(payload[12*n+4*i:])))
	}
	for i := range blk {
		blk[i].Run = int(int32(le.Uint32(payload[16*n+4*i:])))
	}
	for i := range blk {
		blk[i].Instance = int(int32(le.Uint32(payload[20*n+4*i:])))
	}
	for i := range blk {
		blk[i].Attempt = int(int32(le.Uint32(payload[24*n+4*i:])))
	}
	for i := range blk {
		blk[i].Value = math.Float64frombits(le.Uint64(payload[28*n+8*i:]))
	}
	// Each string column decodes in its own tight loop (a shared loop would
	// re-test the column selector per row); the id bounds branch is never
	// taken on valid input and predicts perfectly.
	nd := uint32(len(dict))
	col := payload[36*n : 40*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Experiment = dict[id]
	}
	col = payload[40*n : 44*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Workload = dict[id]
	}
	col = payload[44*n : 48*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Backend = dict[id]
	}
	col = payload[48*n : 52*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Machine = dict[id]
	}
	col = payload[52*n : 56*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Metric = dict[id]
	}
	col = payload[56*n : 60*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Unit = dict[id]
	}
	col = payload[60*n : 64*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Status = dict[id]
	}
	col = payload[64*n : 68*n]
	for i := range blk {
		id := le.Uint32(col[4*i:])
		if id >= nd {
			return fmt.Errorf("dictionary id %d out of range (%d entries)", id, nd)
		}
		blk[i].Error = dict[id]
	}
	return nil
}

// binScan is the binary analogue of scanResult: the accepted prefix of a
// binary log as found by walk, and its data blocks.
type binScan struct {
	rows int
	// lastRun and runStartRows are the CSV scanner's run bookkeeping over
	// the accepted rows; only checkLog and cutBinary compute them.
	lastRun      int
	runStartRows int
	dataEnd      int64 // offset past the last valid block
	torn         bool
	dict         []string
	refs         []blockRef
}

// ---- dispatch targets ----

// scanBinaryFile is the ScanFile implementation for binary logs.
func scanBinaryFile(path string) (rows, lastRun int, torn bool, err error) {
	sc, err := checkLogFile(path)
	return sc.rows, sc.lastRun, sc.torn, err
}

// openAppendBinary opens a binary log for continuation: it validates every
// block, truncates a torn tail, reloads the string dictionary, and positions
// the writer at the end.
func openAppendBinary(path string, o Options) (*Writer, int, error) {
	bw, err := openAppendBinaryCore(path, o)
	if err != nil {
		return nil, 0, err
	}
	return &Writer{bin: bw, opts: o, wroteHeader: true, rows: bw.rows}, bw.rows, nil
}

// openAppendBinaryCore does the work of openAppendBinary but returns the bare
// binWriter, so the segmented log can reuse the same repair-and-position
// logic on its active segment.
func openAppendBinaryCore(path string, o Options) (*binWriter, error) {
	sc, err := checkLogFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if sc.torn {
		if err := f.Truncate(sc.dataEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("record: truncating torn tail: %w", err)
		}
	}
	bw, err := appendAt(f, sc, o)
	if err != nil {
		f.Close()
		return nil, err
	}
	return bw, nil
}

// reopenBinary is Reopen for a single-file binary log.
func reopenBinary(path string, checkpoint int, o Options) (*Writer, []Row, int, error) {
	bw, rows, dropped, err := reopenBinaryCore(path, checkpoint, o, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	return &Writer{bin: bw, opts: o, wroteHeader: true, rows: bw.rows}, rows, dropped, nil
}

// reopenBinaryCore is the one-pass reopen of the binary log at path: one
// read decodes the log and checks every block, the cut to checkpoint rows
// (or, for a negative checkpoint, past the trailing run) takes a split
// block's retained rows from that decode, and the writer is positioned
// after the kept rows. The kept rows are appended to dst.
func reopenBinaryCore(path string, checkpoint int, o Options, dst []Row) (bw *binWriter, rows []Row, droppedRun int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	b, err := loadLog(path)
	if err == nil {
		defer b.release()
		var sc, kept binScan
		if sc, rows, err = readLog(b.data, dst); err == nil {
			if kept, droppedRun, err = cutBinary(f, b.data, sc, checkpoint, rows[len(dst):]); err == nil {
				if bw, err = appendAt(f, kept, o); err == nil {
					return bw, rows[:len(dst)+kept.rows], droppedRun, nil
				}
			}
		}
	}
	f.Close()
	return nil, nil, 0, err
}

// appendAt positions a writer on f after the log that sc describes.
func appendAt(f *os.File, sc binScan, o Options) (*binWriter, error) {
	if _, err := f.Seek(sc.dataEnd, io.SeekStart); err != nil {
		return nil, err
	}
	bw := newBinWriterCore(bufio.NewWriterSize(f, 1<<16), binBlockRows)
	bw.f, bw.sync = f, o.Sync
	bw.off, bw.rows = sc.dataEnd, sc.rows
	bw.lastRun, bw.runStartRows = sc.lastRun, sc.runStartRows
	for i, s := range sc.dict {
		bw.dict[s] = uint32(i)
	}
	return bw, nil
}

// cutBinary cuts the binary log open at f, whose bytes are data and whose
// scan is sc, down to its first n rows; a negative n drops the trailing run
// instead (the rows of the last row's run index, unless that is 0), and
// with it any torn tail. It returns the scan of the log it leaves, without
// block refs, and the run it dropped. A cut on a block boundary is a plain
// truncate; a cut inside a block truncates at its frame and re-appends the
// retained prefix as a smaller block (its strings are already in the
// preceding dictionary). That prefix comes from rows, the log's decoded
// rows, or, when rows is nil, from decoding the split block alone.
// Everything read from data is read before the file shrinks under it.
func cutBinary(f *os.File, data []byte, sc binScan, n int, rows []Row) (kept binScan, droppedRun int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer catchFault(&err)
	if n < 0 {
		n = sc.rows
		if lastRun, start := runTail(data, sc.refs, n); lastRun != 0 {
			n, droppedRun = start, lastRun
		}
	}
	if n > sc.rows {
		return kept, 0, fmt.Errorf("record: truncate to %d rows: only %d available", n, sc.rows)
	}
	kept = binScan{rows: n, dataEnd: sc.dataEnd, dict: sc.dict}
	kept.lastRun, kept.runStartRows = runTail(data, sc.refs, n)
	if n == sc.rows {
		if sc.torn {
			err = f.Truncate(sc.dataEnd)
		}
		return kept, droppedRun, err
	}
	cut := sc.refs[sort.Search(len(sc.refs), func(i int) bool { return sc.refs[i].firstRow+sc.refs[i].n > n })]
	kept.dataEnd, kept.dict = cut.off, sc.dict[:cut.dictLen]
	var part []Row
	if k := n - cut.firstRow; k > 0 && rows != nil {
		part = rows[cut.firstRow:n]
	} else if k > 0 {
		blk := make([]Row, cut.n)
		if err := decodeRef(data, cut, sc.dict, blk); err != nil {
			return kept, 0, fmt.Errorf("record: corrupt block at offset %d: %s", cut.off, err)
		}
		part = blk[:k]
	}
	if err := f.Truncate(cut.off); err != nil {
		return kept, 0, err
	}
	if k := len(part); k > 0 {
		dict := make(map[string]uint32, len(kept.dict))
		for i, s := range kept.dict {
			dict[s] = uint32(i)
		}
		payload := encodeDataBlock(part, dict)
		bw := &binWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), off: cut.off}
		if _, err := f.Seek(cut.off, io.SeekStart); err != nil {
			return kept, 0, err
		}
		if err := bw.writeBlock(binKindData, k, part[0].Run, part[k-1].Run, payload); err != nil {
			return kept, 0, err
		}
		if err := bw.bw.Flush(); err != nil {
			return kept, 0, err
		}
		kept.dataEnd = bw.off
	}
	return kept, droppedRun, nil
}

// truncateTrailingRunBinary is the TruncateTrailingRun implementation for
// binary logs.
func truncateTrailingRunBinary(path string) (rows, droppedRun int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	b, err := loadLog(path)
	if err != nil {
		return 0, 0, err
	}
	defer b.release()
	sc, err := checkLog(b.data)
	if err != nil {
		return 0, 0, err
	}
	kept, droppedRun, err := cutBinary(f, b.data, sc, -1, nil)
	if err != nil {
		return 0, 0, err
	}
	return kept.rows, droppedRun, nil
}

// writeRowsAtomicBinary renders a complete binary log to a temp file and
// renames it into place.
func writeRowsAtomicBinary(path string, rows []Row) error {
	f, err := fsx.Create(path)
	if err != nil {
		return err
	}
	// All rows are known, so a set shorter than a block gets buffers its
	// size; add still cuts blocks at binBlockRows, so the bytes are those of
	// a streamed log.
	w := newBinWriterCore(bufio.NewWriterSize(f, 1<<16), min(len(rows), binBlockRows))
	if _, err := w.bw.WriteString(binMagic); err != nil {
		f.Abort()
		return err
	}
	for i := range rows {
		if err := w.add(&rows[i]); err != nil {
			f.Abort()
			return err
		}
	}
	if err := w.emit(); err != nil {
		f.Abort()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		f.Abort()
		return err
	}
	return f.Close() // sync + atomic rename into place
}
