// Package record implements SHARP's Logger module (§IV-d): tidy-data CSV
// logging of every metric of every run, plus a human- and machine-readable
// Markdown metadata file that fully describes the experiment and the System
// Under Test. SHARP can parse its own metadata file to recreate the
// experiment — the round-trip that makes records executable documentation.
package record

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sharp/internal/fsx"
)

// Row is one tidy-data observation: exactly one metric value for one
// concurrent instance of one run. Wide results (several metrics per run)
// become several rows, which keeps downstream statistical processing
// uniform (the "tidy data" convention the paper adopts).
type Row struct {
	// Timestamp is the observation completion time (UTC).
	Timestamp time.Time
	// Experiment names the experiment (e.g. "fig6").
	Experiment string
	// Workload names the benchmark or function (e.g. "hotspot").
	Workload string
	// Backend names the execution backend ("local", "faas", "sim", ...).
	Backend string
	// Machine names the (possibly simulated) machine.
	Machine string
	// Day is the measurement day index (1-based; 0 when not applicable).
	Day int
	// Run is the repetition index within the experiment (1-based).
	Run int
	// Instance is the concurrent-instance index within the run (1-based);
	// each concurrent instance gets its own row. 0 marks a whole-run
	// failure record.
	Instance int
	// Metric is the metric name ("exec_time", "detection_time", ...).
	Metric string
	// Value is the measured value.
	Value float64
	// Unit is the measurement unit ("seconds", "bytes", ...).
	Unit string
	// Status marks the observation outcome: "ok", "error", or "" for legacy
	// logs that predate failure-aware logging.
	Status string
	// Attempt is the number of backend attempts consumed to produce this
	// observation (1 without retries; 0 in legacy logs).
	Attempt int
	// Error is the failure message for Status "error" rows (empty
	// otherwise). Failed runs and instances are recorded as data, never
	// silently dropped.
	Error string
}

// Header is the CSV column order; it doubles as the field list documented
// in the metadata file. The status/attempt/error columns were added by the
// resilience layer; logs written before it (the first len(legacyHeader)
// columns only) still parse.
var Header = []string{
	"timestamp", "experiment", "workload", "backend", "machine",
	"day", "run", "instance", "metric", "value", "unit",
	"status", "attempt", "error",
}

// legacyHeaderLen is the column count of pre-resilience logs.
const legacyHeaderLen = 11

// Row.Status values and the failure-row metric name.
const (
	// StatusOK marks a successful observation.
	StatusOK = "ok"
	// StatusError marks a failed run or instance recorded as data.
	StatusError = "error"
	// MetricError is the metric name of failure rows (value 1 per failure).
	MetricError = "error"
)

// FieldDocs maps each CSV column to its documentation line, written to the
// metadata file so every field of the raw data is described (§IV-d).
var FieldDocs = map[string]string{
	"timestamp":  "observation completion time, RFC 3339, UTC",
	"experiment": "experiment identifier",
	"workload":   "benchmark or function name",
	"backend":    "execution backend (local, process, faas, sim)",
	"machine":    "machine (possibly simulated) that executed the run",
	"day":        "measurement day index, 1-based; 0 if not applicable",
	"run":        "repetition index within the experiment, 1-based",
	"instance":   "concurrent instance index within the run, 1-based; 0 = whole-run failure",
	"metric":     "metric name (e.g. exec_time)",
	"value":      "measured value (float)",
	"unit":       "unit of the value",
	"status":     "observation outcome: ok or error",
	"attempt":    "backend attempts consumed (1 without retries)",
	"error":      "failure message for error rows",
}

// strings converts a Row to CSV fields in Header order.
func (r Row) strings() []string {
	return []string{
		r.Timestamp.UTC().Format(time.RFC3339Nano),
		r.Experiment, r.Workload, r.Backend, r.Machine,
		strconv.Itoa(r.Day), strconv.Itoa(r.Run), strconv.Itoa(r.Instance),
		r.Metric, strconv.FormatFloat(r.Value, 'g', -1, 64), r.Unit,
		r.Status, strconv.Itoa(r.Attempt), r.Error,
	}
}

// parseRow converts CSV fields back to a Row. Both the current layout and
// the legacy pre-resilience layout (no status/attempt/error columns) are
// accepted.
func parseRow(fields []string) (Row, error) {
	if len(fields) != len(Header) && len(fields) != legacyHeaderLen {
		return Row{}, fmt.Errorf("record: row has %d fields, want %d", len(fields), len(Header))
	}
	ts, err := time.Parse(time.RFC3339Nano, fields[0])
	if err != nil {
		return Row{}, fmt.Errorf("record: bad timestamp %q: %w", fields[0], err)
	}
	day, err := strconv.Atoi(fields[5])
	if err != nil {
		return Row{}, fmt.Errorf("record: bad day %q", fields[5])
	}
	run, err := strconv.Atoi(fields[6])
	if err != nil {
		return Row{}, fmt.Errorf("record: bad run %q", fields[6])
	}
	inst, err := strconv.Atoi(fields[7])
	if err != nil {
		return Row{}, fmt.Errorf("record: bad instance %q", fields[7])
	}
	val, err := strconv.ParseFloat(fields[9], 64)
	if err != nil {
		return Row{}, fmt.Errorf("record: bad value %q", fields[9])
	}
	row := Row{
		Timestamp: ts, Experiment: fields[1], Workload: fields[2],
		Backend: fields[3], Machine: fields[4],
		Day: day, Run: run, Instance: inst,
		Metric: fields[8], Value: val, Unit: fields[10],
	}
	if len(fields) == len(Header) {
		row.Status = fields[11]
		attempt, err := strconv.Atoi(fields[12])
		if err != nil {
			return Row{}, fmt.Errorf("record: bad attempt %q", fields[12])
		}
		row.Attempt = attempt
		row.Error = fields[13]
	}
	return row, nil
}

// Options tunes a Writer's durability/latency trade-off (§IV-d: a crash
// must not silently lose the recorded distribution). The zero value is the
// legacy policy: buffer everything, flush only on Close.
type Options struct {
	// FlushEvery closes the pending rows into a flush unit every N rows
	// (1 = per row; in a binary log each unit is its own block). The units a
	// Write or WriteAll call completes reach the OS together when the call
	// returns, so a campaign, which hands each run's rows to one WriteAll,
	// pushes once per run: the run is the unit of durability, and a crash
	// loses at most the run in progress. 0 keeps the legacy
	// flush-on-Close-only policy.
	FlushEvery int
	// Sync additionally fsyncs the underlying file on every push (once per
	// run for a campaign), making pushed rows durable against power loss,
	// not just process death. It has no effect on writers not backed by an
	// *os.File.
	Sync bool
	// Format selects the on-disk encoding for created logs. FormatAuto (the
	// zero value) picks by path extension: ".sharpb" is the binary columnar
	// format, everything else CSV. Read paths ignore it — they sniff the
	// file's magic bytes instead.
	Format Format
	// SegmentRows, when positive, rolls binary logs into self-contained
	// segments of about this many rows under <path>.seg/, with a manifest at
	// <path> (see segment.go). Truncation, repair, and resume then touch only
	// the last segment instead of one ever-growing file. 0 keeps the
	// single-file layout. CSV logs ignore it.
	SegmentRows int
}

// Writer streams tidy rows to a log, optionally flushing (and fsyncing) at a
// configurable row cadence so a crash loses at most the last unflushed rows
// instead of the whole buffered log. The encoding behind it is either the
// CSV tidy log or the binary columnar format (per Options.Format); the flush
// policy, row accounting, and crash-repair contract are identical for both.
type Writer struct {
	w           *csv.Writer
	c           io.Closer
	f           *os.File   // non-nil when file-backed (enables Sync)
	bin         *binWriter // non-nil for binary columnar logs
	seg         *segWriter // non-nil for segmented binary logs
	opts        Options
	wroteHeader bool
	rows        int
	unflushed   int
}

// NewWriter wraps an io.Writer; the CSV header is emitted with the first
// row.
func NewWriter(w io.Writer) *Writer { return &Writer{w: csv.NewWriter(w)} }

// Create opens path for writing (truncating) and returns a Writer that
// closes the file on Close, with the legacy buffer-until-Close policy.
func Create(path string) (*Writer, error) { return CreateDurable(path, Options{}) }

// CreateDurable opens path for writing (truncating) with an explicit flush
// policy, so rows reach the OS (and optionally the disk) while the campaign
// is still running. The encoding follows Options.Format (by extension when
// FormatAuto).
func CreateDurable(path string, o Options) (*Writer, error) {
	if o.resolve(path) == FormatBinary {
		if o.SegmentRows > 0 {
			return createSegmented(path, o)
		}
		bw, err := createBinary(path, o)
		if err != nil {
			return nil, err
		}
		return &Writer{bin: bw, opts: o}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{w: csv.NewWriter(f), c: f, f: f, opts: o}, nil
}

// Write appends one row: the one-row case of WriteAll.
func (w *Writer) Write(r Row) error { return w.WriteAll([]Row{r}) }

// WriteAll appends rows. Blocks are cut exactly where the same rows written
// one by one would cut them: each time FlushEvery rows are pending, a binary
// log emits its pending dict and data blocks. The buffered bytes reach the
// OS (and, with Sync, the disk) once, after the last row, and only if a
// boundary was crossed, so a campaign handing over each run's rows in one
// call costs one write per run while the bytes on disk stay those of
// per-row writes. On an error the rows already due are pushed before the
// error is returned, as per-row writes would have pushed them. Rows counts
// only rows the encoder accepted.
func (w *Writer) WriteAll(rows []Row) error {
	cut := false
	for i := range rows {
		if err := w.add(&rows[i]); err != nil {
			if cut {
				err = errors.Join(err, w.push())
			}
			return err
		}
		w.rows++
		w.unflushed++
		if w.opts.FlushEvery > 0 && w.unflushed >= w.opts.FlushEvery {
			if err := w.cut(); err != nil {
				return err
			}
			cut = true
		}
	}
	if cut {
		return w.push()
	}
	return nil
}

// Rows returns the number of data rows in the log: rows written through this
// Writer plus, for writers from OpenAppend, the valid rows already on disk.
func (w *Writer) Rows() int { return w.rows }

// Flush pushes all buffered rows, including a pending partial flush unit,
// to the underlying writer and, when the Sync option is set on a
// file-backed writer, fsyncs them to stable storage. WriteAll pushes per
// the FlushEvery policy on its own; Flush is for explicit checkpoints.
func (w *Writer) Flush() error {
	if err := w.cut(); err != nil {
		return err
	}
	return w.push()
}

// blocks returns the binary writer of the active log file, or nil for CSV.
func (w *Writer) blocks() *binWriter {
	if w.seg != nil {
		return w.seg.bw
	}
	return w.bin
}

// add encodes one row into the writer's buffers.
func (w *Writer) add(r *Row) error {
	if w.seg != nil {
		return w.seg.add(r)
	}
	if w.bin != nil {
		return w.bin.add(r)
	}
	if !w.wroteHeader {
		if err := w.w.Write(Header); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	return w.w.Write(r.strings())
}

// cut closes the pending rows into blocks (binary logs; CSV rows need no
// framing) without pushing them to the OS.
func (w *Writer) cut() error {
	w.unflushed = 0
	if bw := w.blocks(); bw != nil {
		return bw.emit()
	}
	return nil
}

// push hands the buffered bytes to the OS and, with Sync on a file-backed
// writer, fsyncs them.
func (w *Writer) push() error {
	if bw := w.blocks(); bw != nil {
		return bw.push()
	}
	w.w.Flush()
	if err := w.w.Error(); err != nil {
		return err
	}
	if w.opts.Sync && w.f != nil {
		return w.f.Sync()
	}
	return nil
}

// Close flushes and closes the underlying file if any. The file is closed
// unconditionally — a flush error must not leak the descriptor — and flush
// and close errors are joined.
func (w *Writer) Close() error {
	if w.seg != nil {
		return w.seg.close()
	}
	if w.bin != nil {
		return w.bin.close()
	}
	var err error
	if !w.wroteHeader { // ensure even empty logs have a header
		err = w.w.Write(Header)
		w.wroteHeader = true
	}
	if err == nil {
		err = w.Flush()
	}
	if w.c != nil {
		err = errors.Join(err, w.c.Close())
	}
	return err
}

// validateHeader checks a parsed header record against Header, accepting
// the legacy pre-resilience prefix.
func validateHeader(rec []string) error {
	if len(rec) != len(Header) && len(rec) != legacyHeaderLen {
		return fmt.Errorf("record: unexpected header %v", rec)
	}
	for i, col := range rec {
		if Header[i] != col {
			return fmt.Errorf("record: unexpected header %v", rec)
		}
	}
	return nil
}

// readInto parses tidy rows from r, appending to dst (which may carry
// preallocated capacity); the first record must be the Header (the legacy
// pre-resilience header, lacking the status/attempt/error columns, is also
// accepted). Records are streamed with a reused field buffer rather than
// materialized via ReadAll, so reading a multi-million-row log costs one Row
// slice, not a second [][]string copy of the whole file.
func readInto(r io.Reader, dst []Row) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // parseRow copies what it keeps
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("record: missing header")
	}
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	if err := validateHeader(header); err != nil {
		return nil, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		row, err := parseRow(rec)
		if err != nil {
			return nil, err
		}
		dst = append(dst, row)
	}
}

// StreamFile parses a log file in either format (sniffed from the magic
// bytes), delivering its rows to fn in batches. The batch slice is reused
// between calls, so fn must copy any row it retains. Replaying this way
// touches one block-sized scratch batch instead of materializing the whole
// log, which is what makes streaming consumers (sharp convert, the replay
// benchmarks) immune to log size. A torn binary tail is silently dropped, as
// in ReadFile.
func StreamFile(path string, fn func(batch []Row) error) error {
	format, err := sniffRead(path)
	if err != nil {
		return err
	}
	switch {
	case format == formatSegmented:
		return streamSegmented(path, fn)
	case format == FormatBinary:
		_, err := streamLogFile(path, fn)
		return err
	case emptyArtifact(path):
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return streamCSV(bufio.NewReaderSize(f, 1<<16), fn)
}

// streamCSV delivers parsed CSV rows to fn in reused batches.
func streamCSV(r io.Reader, fn func([]Row) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // parseRow copies what it keeps
	header, err := cr.Read()
	if err == io.EOF {
		return fmt.Errorf("record: missing header")
	}
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := validateHeader(header); err != nil {
		return err
	}
	batch := make([]Row, 0, binBlockRows)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			if len(batch) > 0 {
				return fn(batch)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		row, err := parseRow(rec)
		if err != nil {
			return err
		}
		if batch = append(batch, row); len(batch) == binBlockRows {
			if err := fn(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
}

// ReadFile parses a log file in either format (sniffed from the magic
// bytes). For CSV the row slice is preallocated from the file size (tidy
// rows are ~100 bytes), so resuming a large campaign does not grow-and-copy
// its way through millions of appends; for binary logs the frame walk
// supplies the exact count.
func ReadFile(path string) ([]Row, error) {
	if format, err := sniffRead(path); err != nil {
		return nil, err
	} else if format == formatSegmented {
		return readSegmented(path, nil)
	} else if format == FormatBinary {
		_, rows, err := readLogFile(path, nil)
		return rows, err
	} else if emptyArtifact(path) {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var dst []Row
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		const approxRowBytes = 100
		dst = make([]Row, 0, st.Size()/approxRowBytes+1)
	}
	return readInto(bufio.NewReaderSize(f, 1<<16), dst)
}

// WriteRowsAtomic writes a complete tidy-data log to path atomically: the
// log is rendered to a temp file in path's directory and renamed into place
// on success, so a crash mid-write never leaves a torn log where a complete
// one (or nothing) should be. The format follows the path extension; for
// CSV the bytes are identical to Create+WriteAll.
func WriteRowsAtomic(path string, rows []Row) error {
	return WriteRowsAtomicFormat(path, rows, FormatAuto)
}

// WriteRowsAtomicFormat is WriteRowsAtomic with an explicit format.
func WriteRowsAtomicFormat(path string, rows []Row, format Format) error {
	if (Options{Format: format}).resolve(path) == FormatBinary {
		return writeRowsAtomicBinary(path, rows)
	}
	f, err := fsx.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		w.Close()
		f.Abort()
		return err
	}
	if err := w.Close(); err != nil { // flush the csv buffer into the temp file
		f.Abort()
		return err
	}
	return f.Close() // sync + atomic rename into place
}

// scanResult describes the on-disk state of a log examined by scanLog.
type scanResult struct {
	// rows is the number of complete, parseable data rows.
	rows int
	// end is the byte offset just past the last complete row (or the
	// header); everything after it is a torn tail from an interrupted write.
	end int64
	// torn reports whether bytes past end were found.
	torn bool
	// lastRun is the run index of the final complete row (0 when empty).
	lastRun int
	// runStart is the byte offset where the rows of lastRun's run index
	// begin — the truncation point that drops the final (possibly
	// incomplete) run.
	runStart int64
	// runStartRows is the row count up to runStart.
	runStartRows int
}

// scanLog streams a log file, validating the header and every row, and
// locates the crash-consistent truncation points. A partial trailing line
// (no terminating newline, or an unparsable final line — the signature of a
// process killed mid-flush) is reported as a torn tail; an unparsable line
// in the interior is a hard corruption error. The scan is line-based, which
// is sound for SHARP logs: the Writer never emits a field containing a raw
// newline (error messages are sanitized before logging).
func scanLog(r io.Reader) (scanResult, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var res scanResult
	var off int64
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if line == "" && err == io.EOF {
			return res, nil
		}
		if err != nil && err != io.EOF {
			return res, fmt.Errorf("record: %w", err)
		}
		complete := strings.HasSuffix(line, "\n")
		start := off
		off += int64(len(line))
		lineNo++
		if lineNo == 1 {
			if !complete {
				// A torn header means no complete row survived; there is
				// nothing to continue from.
				return res, fmt.Errorf("record: missing header")
			}
			rec, perr := parseLine(line)
			if perr != nil || validateHeader(rec) != nil {
				return res, fmt.Errorf("record: unexpected header %v", strings.TrimSuffix(line, "\n"))
			}
			res.end = off
			res.runStart = off
			continue
		}
		row, perr := func() (Row, error) {
			rec, perr := parseLine(line)
			if perr != nil {
				return Row{}, perr
			}
			return parseRow(rec)
		}()
		if perr != nil || !complete {
			if err == io.EOF {
				// Torn tail: the final line is incomplete or unparsable —
				// exactly what a crash mid-write leaves behind.
				res.torn = true
				return res, nil
			}
			if perr == nil {
				perr = errors.New("incomplete line")
			}
			return res, fmt.Errorf("record: corrupt row at line %d: %v", lineNo, perr)
		}
		if row.Run != res.lastRun {
			res.lastRun = row.Run
			res.runStart = start
			res.runStartRows = res.rows
		}
		res.rows++
		res.end = off
		if err == io.EOF {
			return res, nil
		}
	}
}

// parseLine parses a single CSV line into fields.
func parseLine(line string) ([]string, error) {
	cr := csv.NewReader(strings.NewReader(line))
	rec, err := cr.Read()
	if err != nil {
		return nil, err
	}
	// A line with trailing garbage after a closing quote etc. yields a
	// second record; reject it.
	if _, err := cr.Read(); err != io.EOF {
		return nil, errors.New("trailing data")
	}
	return rec, nil
}

// ScanFile examines a log file without modifying it, returning the number
// of complete rows, the run index of the last complete row, and whether a
// torn tail (crash signature) is present.
func ScanFile(path string) (rows, lastRun int, torn bool, err error) {
	if format, err := sniffRead(path); err != nil {
		return 0, 0, false, err
	} else if format == formatSegmented {
		return scanSegmented(path)
	} else if format == FormatBinary {
		return scanBinaryFile(path)
	} else if emptyArtifact(path) {
		return 0, 0, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	res, err := scanLog(f)
	if err != nil {
		return 0, 0, false, err
	}
	return res.rows, res.lastRun, res.torn, nil
}

// OpenAppend opens an existing log for continuation: it validates that the
// file starts with the current Header, truncates any torn trailing line
// left by a crash, positions the writer at the end, and returns the number
// of complete rows already on disk. Appending to a legacy pre-resilience
// log is refused (its rows have a different column count).
func OpenAppend(path string, o Options) (w *Writer, rows int, err error) {
	format, err := sniffFormat(path)
	if errors.Is(err, errSniffShort) && emptyArtifact(path) {
		// A crash before the first flush leaves a 0-byte file: no rows were
		// ever durable, so "repair" is starting over. Without this, a
		// campaign could never resume past a crash that beat the first
		// buffer flush.
		w, cerr := CreateDurable(path, o)
		return w, 0, cerr
	}
	if err != nil && !errors.Is(err, errSniffShort) {
		return nil, 0, err
	}
	if format == formatSegmented {
		return openAppendSegmented(path, o)
	}
	if format == FormatBinary {
		// A plain single-file binary log is continued as-is even when
		// SegmentRows is set: segmentation applies to logs created segmented.
		return openAppendBinary(path, o)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	res, err := scanLog(f)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	// Re-check the header width: scanLog accepts the legacy prefix for
	// reading, but appending 14-column rows under an 11-column header would
	// produce a log no reader accepts.
	if err := checkAppendHeader(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	if res.torn {
		if err := f.Truncate(res.end); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("record: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(res.end, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Writer{
		w: csv.NewWriter(f), c: f, f: f, opts: o,
		wroteHeader: true, rows: res.rows,
	}, res.rows, nil
}

// checkAppendHeader verifies the file's header has the current column count
// (seeking from the start; the caller restores the offset afterwards).
func checkAppendHeader(f *os.File) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReader(f)
	line, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return fmt.Errorf("record: %w", err)
	}
	rec, perr := parseLine(line)
	if perr != nil {
		return fmt.Errorf("record: unexpected header %v", strings.TrimSuffix(line, "\n"))
	}
	if len(rec) != len(Header) {
		return fmt.Errorf("record: cannot append to legacy %d-column log (current header has %d columns)", len(rec), len(Header))
	}
	return nil
}

// TruncateTrailingRun truncates the log at path so that the final run's
// rows — which may be incomplete if the process died mid-run — are removed
// along with any torn trailing line. It returns the remaining row count and
// the run index that was dropped (0 if the log had no data rows). This is
// the hard-crash recovery primitive: without a checkpoint marker there is
// no way to know whether the last run's row block is complete, so resume
// re-executes it from its backend draws instead.
func TruncateTrailingRun(path string) (rows, droppedRun int, err error) {
	if format, err := sniffRead(path); err != nil {
		return 0, 0, err
	} else if format == formatSegmented {
		return truncateTrailingRunSegmented(path)
	} else if format == FormatBinary {
		return truncateTrailingRunBinary(path)
	} else if emptyArtifact(path) {
		return 0, 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	res, err := scanLog(f)
	if err != nil {
		return 0, 0, err
	}
	if res.lastRun == 0 {
		if res.torn {
			if err := f.Truncate(res.end); err != nil {
				return 0, 0, err
			}
		}
		return res.rows, 0, nil
	}
	if err := f.Truncate(res.runStart); err != nil {
		return 0, 0, err
	}
	return res.runStartRows, res.lastRun, nil
}

// Reopen repairs the log at path for resuming a campaign and opens it for
// continuation, in one call. With checkpoint >= 0 — the row count a
// checkpoint recorded as durable — the log is cut to exactly that many rows
// (more than it holds is an error). With checkpoint < 0 — a hard crash, with
// no way to know whether the last run's rows are complete — the final run
// and any torn tail are dropped, and droppedRun names the dropped run (0 if
// none). Reopen returns the kept rows, to replay, and a Writer positioned
// after them. The log bytes it leaves are those of the cut, ReadFile and
// OpenAppend in sequence; a binary log is read once, the cut taking a split
// block's rows from that read, and a segmented log reads only its sealed
// segments besides the one the cut lands in.
func Reopen(path string, checkpoint int, o Options) (w *Writer, rows []Row, droppedRun int, err error) {
	format, err := sniffRead(path)
	if err != nil {
		return nil, nil, 0, err
	}
	switch format {
	case formatSegmented:
		return reopenSegmented(path, checkpoint, o)
	case FormatBinary:
		return reopenBinary(path, checkpoint, o)
	}
	if checkpoint >= 0 {
		err = truncateRowsCSV(path, checkpoint)
	} else {
		_, droppedRun, err = TruncateTrailingRun(path)
	}
	if err == nil {
		rows, err = ReadFile(path)
	}
	if err == nil {
		w, _, err = OpenAppend(path, o)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return w, rows, droppedRun, nil
}

// truncateRowsCSV cuts the CSV log at path to exactly its first n complete
// rows (plus header); n larger than the available rows is an error.
func truncateRowsCSV(path string, n int) error {
	if emptyArtifact(path) {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("record: truncate to %d rows: only 0 available", n)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	rows := -1 // header is line 0
	for rows < n {
		line, err := br.ReadString('\n')
		if line == "" && err == io.EOF {
			return fmt.Errorf("record: truncate to %d rows: only %d available", n, rows)
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("record: %w", err)
		}
		if !strings.HasSuffix(line, "\n") {
			return fmt.Errorf("record: truncate to %d rows: only %d available", n, rows)
		}
		off += int64(len(line))
		rows++
	}
	return f.Truncate(off)
}

// Filter returns the rows matching all non-zero criteria of the selector.
type Filter struct {
	Experiment, Workload, Backend, Machine, Metric string
	Day                                            int
}

// Select filters rows.
func Select(rows []Row, f Filter) []Row {
	var out []Row
	for _, r := range rows {
		if f.Experiment != "" && r.Experiment != f.Experiment {
			continue
		}
		if f.Workload != "" && r.Workload != f.Workload {
			continue
		}
		if f.Backend != "" && r.Backend != f.Backend {
			continue
		}
		if f.Machine != "" && r.Machine != f.Machine {
			continue
		}
		if f.Metric != "" && r.Metric != f.Metric {
			continue
		}
		if f.Day != 0 && r.Day != f.Day {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Values extracts the Value column of rows, in order.
func Values(rows []Row) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.Value
	}
	return out
}
