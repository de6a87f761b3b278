package record

// The CSV readers and the line scanner that served the CSV log before the
// one-pass scanner (scanCSV) replaced them, kept unchanged as the oracles it
// is tested against: readInto read the rows for ReadFile and StreamFile,
// scanLog scanned for ScanFile, OpenAppend and TruncateTrailingRun, and
// truncateRowsCSV made Reopen's checkpoint cut.

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

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
