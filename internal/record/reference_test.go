package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// refBlock records where a data block sits in the file.
type refBlock struct {
	off      int64 // frame start offset
	rows     int
	firstRow int // global row index of the block's first row
}

// refScan is the reference scanner's verdict on a binary log.
type refScan struct {
	rows         int
	lastRun      int
	runStartRows int
	dataEnd      int64 // offset past the last valid block
	torn         bool
	dict         []string
	blocks       []refBlock
}

// scanReference is the streaming block scanner that read every binary log
// before the single frame walk replaced it, kept unchanged as the oracle the
// walk is tested against: it reads the log through a bufio.Reader, validating
// framing, checksums, and decodability of every block, and locates the
// crash-consistent truncation point. An incomplete or invalid final block
// (EOF reached, nothing after it) is a torn tail left by a crash and is
// repairable; an invalid block with data after it is hard corruption. When
// collect is true the decoded rows are appended to dst and returned; sink,
// when set, receives each decoded block.
func scanReference(r io.Reader, dst []Row, collect bool, sink func([]Row) error) (refScan, []Row, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var sc refScan
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != binMagic {
		return sc, nil, errors.New("record: missing binary magic")
	}
	sc.dataEnd = int64(len(binMagic))
	rows := dst
	frame := make([]byte, binFrameLen)
	var payload []byte // reused across blocks; nothing decoded retains it
	for {
		blockOff := sc.dataEnd
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				return sc, rows, nil
			}
			if err == io.ErrUnexpectedEOF {
				sc.torn = true // partial frame: crash signature
				return sc, rows, nil
			}
			return sc, nil, fmt.Errorf("record: %w", err)
		}
		kind := frame[0]
		nRows := int(binary.LittleEndian.Uint32(frame[1:]))
		firstRun := int(int32(binary.LittleEndian.Uint32(frame[5:])))
		lastRun := int(int32(binary.LittleEndian.Uint32(frame[9:])))
		payloadLen := int(binary.LittleEndian.Uint32(frame[13:]))
		wantCRC := binary.LittleEndian.Uint32(frame[17:])
		// Structural sanity. The writer emits only well-formed frames, and a
		// crash can only truncate the stream (leaving a partial frame or
		// payload, handled above/below), so a complete frame that is
		// structurally impossible is corruption, not a crash.
		switch {
		case kind != binKindDict && kind != binKindData:
			return sc, nil, fmt.Errorf("record: corrupt block at offset %d: unknown kind 0x%02x", blockOff, kind)
		case payloadLen > binMaxPayload || nRows <= 0:
			return sc, nil, fmt.Errorf("record: corrupt block at offset %d: implausible frame", blockOff)
		case kind == binKindData && payloadLen != nRows*binRowBytes:
			return sc, nil, fmt.Errorf("record: corrupt block at offset %d: payload/row-count mismatch", blockOff)
		}
		if cap(payload) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				sc.torn = true // partial payload: crash signature
				return sc, rows, nil
			}
			return sc, nil, fmt.Errorf("record: %w", err)
		}
		_, peekErr := br.Peek(1)
		final := peekErr == io.EOF
		// fail reports a bad block: torn if it is the file's final block
		// (a disk-level torn write), hard corruption otherwise.
		fail := func(msg string) (refScan, []Row, error) {
			if final {
				sc.torn = true
				return sc, rows, nil
			}
			return sc, nil, fmt.Errorf("record: corrupt block at offset %d: %s", blockOff, msg)
		}
		if crc := crc32.Update(crc32.Update(0, binCRC, frame[:17]), binCRC, payload); crc != wantCRC {
			return fail("checksum mismatch")
		}
		switch kind {
		case binKindDict:
			got := 0
			for off := 0; off < len(payload); {
				if off+4 > len(payload) {
					return fail("truncated dictionary entry")
				}
				l := int(binary.LittleEndian.Uint32(payload[off:]))
				off += 4
				if l < 0 || off+l > len(payload) {
					return fail("dictionary entry overruns payload")
				}
				sc.dict = append(sc.dict, string(payload[off:off+l]))
				off += l
				got++
			}
			if got != nRows {
				return fail(fmt.Sprintf("dictionary has %d entries, frame says %d", got, nRows))
			}
		case binKindData:
			before := len(rows)
			var err error
			rows, err = decodeDataBlock(payload, nRows, sc.dict, rows)
			if err != nil {
				rows = rows[:before]
				return fail(err.Error())
			}
			block := rows[before:]
			if block[0].Run != firstRun || block[len(block)-1].Run != lastRun {
				rows = rows[:before]
				return fail("frame run range disagrees with rows")
			}
			sc.blocks = append(sc.blocks, refBlock{off: blockOff, rows: nRows, firstRow: sc.rows})
			for i := range block {
				if block[i].Run != sc.lastRun {
					sc.lastRun = block[i].Run
					sc.runStartRows = sc.rows
				}
				sc.rows++
			}
			if sink != nil {
				if err := sink(block); err != nil {
					return sc, nil, err
				}
			}
			if !collect {
				rows = rows[:before]
			}
		}
		sc.dataEnd = blockOff + int64(binFrameLen+payloadLen)
	}
}

// decodeDataBlock decodes a columnar payload of n rows, validating dict ids
// and nanosecond ranges (so a scan that accepts a block guarantees it also
// decodes), appending to dst. Decoding runs column by column: each pass
// streams sequentially through one column of the (cache-resident) payload
// and one field of the freshly appended rows.
func decodeDataBlock(payload []byte, n int, dict []string, dst []Row) ([]Row, error) {
	base := len(dst)
	if cap(dst)-base < n {
		grown := make([]Row, base, base+n+(base+n)/4)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	if err := decodeBlockInto(payload, n, dict, dst[base:base+n:base+n]); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// The truncations as they were before the repair scan: they decode the whole
// log through scanReference and replay the per-row run bookkeeping. They are
// the oracles the repair scan's truncations are tested against, file bytes
// included.

// openAppendReference is OpenAppend followed by Close with nothing
// appended: it drops a torn tail.
func openAppendReference(path string) (int, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc, _, err := scanReference(f, nil, false, nil)
	if err != nil {
		return 0, err
	}
	if sc.torn {
		if err := f.Truncate(sc.dataEnd); err != nil {
			return 0, err
		}
	}
	return sc.rows, nil
}

// truncateRowsReference cuts a binary log to its first n rows.
func truncateRowsReference(path string, n int) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, rows, err := scanReference(f, nil, true, nil)
	if err != nil {
		return err
	}
	return cutReference(f, sc, rows, n)
}

// truncateRowsSegmentedReference cuts a segmented log to its first n rows:
// a cut inside a sealed segment drops every later segment and unseals it,
// and the segment the cut lands in is cut by truncateRowsReference.
func truncateRowsSegmentedReference(path string, n int) error {
	m, rebuilt, err := loadManifest(path)
	if err != nil {
		return err
	}
	if rebuilt {
		if err := writeManifest(path, m); err != nil {
			return err
		}
	}
	start := 0
	for i, e := range m.entries {
		if n < start+e.rows {
			for j := len(m.entries); j > i; j-- {
				os.Remove(segPath(path, j))
			}
			m.entries = m.entries[:i]
			if err := writeManifest(path, m); err != nil {
				return err
			}
			return truncateRowsReference(segPath(path, i), n-start)
		}
		start += e.rows
	}
	ap := segPath(path, len(m.entries))
	if activeSegMissing(ap) {
		if n == start {
			return nil
		}
		return fmt.Errorf("record: truncate to %d rows: only %d available", n, start)
	}
	return truncateRowsReference(ap, n-start)
}

// truncateTrailingRunReference is TruncateTrailingRun on a binary log.
func truncateTrailingRunReference(path string) (rows, droppedRun int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc, all, err := scanReference(f, nil, true, nil)
	if err != nil {
		return 0, 0, err
	}
	if sc.lastRun == 0 {
		if sc.torn {
			if err := f.Truncate(sc.dataEnd); err != nil {
				return 0, 0, err
			}
		}
		return sc.rows, 0, nil
	}
	if err := cutReference(f, sc, all, sc.runStartRows); err != nil {
		return 0, 0, err
	}
	return sc.runStartRows, sc.lastRun, nil
}

// cutReference cuts the log open at f, scanned as sc with decoded rows, to
// its first n rows, re-encoding the retained rows of a split block.
func cutReference(f *os.File, sc refScan, rows []Row, n int) error {
	if n > sc.rows {
		return fmt.Errorf("record: truncate to %d rows: only %d available", n, sc.rows)
	}
	if n < sc.rows {
		var cut refBlock
		for _, b := range sc.blocks {
			if b.firstRow+b.rows > n {
				cut = b
				break
			}
		}
		if err := f.Truncate(cut.off); err != nil {
			return err
		}
		if k := n - cut.firstRow; k > 0 {
			part := rows[cut.firstRow:n]
			dict := make(map[string]uint32, len(sc.dict))
			for i, s := range sc.dict {
				dict[s] = uint32(i)
			}
			bw := &binWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), off: cut.off}
			if _, err := f.Seek(cut.off, io.SeekStart); err != nil {
				return err
			}
			if err := bw.writeBlock(binKindData, k, part[0].Run, part[k-1].Run, encodeDataBlock(part, dict)); err != nil {
				return err
			}
			return bw.bw.Flush()
		}
	} else if sc.torn {
		return f.Truncate(sc.dataEnd)
	}
	return nil
}
