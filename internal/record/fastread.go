// The binary log reader. Every read of a .sharpb file — ReadFile, StreamFile,
// ScanFile, OpenAppend, Reopen, truncation, segments — goes through one frame walk
// over the file's bytes. Those bytes come from a read-only syscall.Mmap view
// of the file or, where mmap is unsupported or refused, or under
// SHARP_RECORD_NOMMAP=1, from os.ReadFile: a reader then holds the whole file
// (68 B/row) in memory while it reads.
//
// The serial walk first counts the data frames by hopping frame headers, so
// its block list is allocated once at its final size, then validates frame
// structure and dictionary blocks (whose strings are copied out of the
// bytes, so decoded rows never alias a mapping) and defers the data blocks
// to one of three consumers:
//
//   - readLog checksum-verifies and decodes them with a bounded worker pool,
//     each block into a disjoint window of the destination slab, so there is
//     no merge step and steady-state replay allocates nothing; Reopen cuts
//     the log using the rows it decoded;
//   - streamLog decodes them in order into one reused batch for a visitor;
//   - checkLog, the repair scan behind ScanFile, OpenAppend, the segment
//     manifest rebuild and TruncateTrailingRun, makes every check a decode
//     makes on the same worker pool without building a row, then finds the
//     last run from the frame headers and the raw run columns of the
//     trailing blocks.
//
// Torn/corrupt classification: the lowest-offset failing block decides the
// outcome, torn if it is the file's final block, hard corruption otherwise.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// NoMmapEnv names the environment variable that disables mmap (value "1"),
// so every reader walks a copy of the file read with os.ReadFile instead.
// Used by the crash-test suite to exercise the fallback.
const NoMmapEnv = "SHARP_RECORD_NOMMAP"

func mmapDisabled() bool { return os.Getenv(NoMmapEnv) == "1" }

// readParallelism holds the configured block-decode parallelism
// (0 = GOMAXPROCS at call time).
var readParallelism atomic.Int64

// SetReadParallelism bounds the worker pool that readLog uses to decode
// independent data blocks and that crash repair uses to check them. It is
// wired to the CLI --parallel flags: 0 restores the default (GOMAXPROCS at
// call time); negative values are clamped to 1 (strictly serial).
func SetReadParallelism(n int) {
	if n < 0 {
		n = 1
	}
	readParallelism.Store(int64(n))
}

// ReadParallelism reports the effective block-decode parallelism.
func ReadParallelism() int {
	if n := readParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// logSource holds the contents of a log file: a read-only mapping, or a copy
// of the file when unmap is nil.
type logSource struct {
	data  []byte
	unmap func()
}

// release unmaps a mapping; it must be called exactly once, after which data
// is invalid.
func (b *logSource) release() {
	if b.unmap != nil {
		b.unmap()
	}
}

// loadLog returns the bytes of the log file at path: a read-only mapping
// when the platform allows it, else a copy read with os.ReadFile (mmap
// unsupported, disabled, or refused by the kernel, e.g. for an empty file).
func loadLog(path string) (*logSource, error) {
	if mmapSupported && !mmapDisabled() {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if data, unmap, err := mmapFile(f, st.Size()); err == nil {
			return &logSource{data: data, unmap: unmap}, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &logSource{data: data}, nil
}

// catchFault is deferred, with debug.SetPanicOnFault(true) in force, by every
// goroutine that touches a log's bytes: a mapped file truncated under its
// reader faults on the vanished pages, and the fault becomes an error instead
// of killing the process. Any other panic is re-raised.
func catchFault(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(interface{ Addr() uintptr }); !ok {
			panic(r)
		}
		*err = fmt.Errorf("record: log changed under its mapping: %v", r)
	}
}

// blockRef locates one data block in a log. dictLen snapshots the
// dictionary length visible to the block, so a block referencing ids its
// preceding dict blocks never introduced fails with "dictionary id N out of
// range".
type blockRef struct {
	off      int64 // frame start offset
	n        int   // rows
	firstRow int   // global row index of the block's first row
	dictLen  int
	firstRun int
	lastRun  int
}

// end returns the offset just past the block's payload.
func (ref blockRef) end() int64 { return ref.off + binFrameLen + int64(ref.n)*binRowBytes }

// logWalk is the result of the serial structure pass over a log. Dictionary
// blocks are fully validated and decoded during the walk; data blocks are
// deferred to the decoder, so the walk's verdict (torn, dataEnd, err) is only
// *pending*: it stands unless an earlier data block fails verification, in
// which case settle lets that block — the lowest-offset failure — decide.
type logWalk struct {
	binScan
	err error // pending hard-corruption verdict
}

// failAt classifies a bad dict block at off: torn if it is the file's final
// block, hard corruption otherwise.
func (w *logWalk) failAt(off int64, final bool, msg string) {
	if final {
		w.torn = true
	} else {
		w.err = fmt.Errorf("record: corrupt block at offset %d: %s", off, msg)
	}
}

// countDataFrames counts the data frames of a binary log held in data by
// hopping frame headers, stopping where the walk would stop at the latest:
// at a torn, unknown or implausible frame. It bounds the walk's block list.
func countDataFrames(data []byte) int {
	le := binary.LittleEndian
	n := 0
	for off, size := int64(len(binMagic)), int64(len(data)); size-off >= binFrameLen; {
		kind := data[off]
		payloadLen := int64(le.Uint32(data[off+13:]))
		if kind != binKindDict && kind != binKindData || payloadLen > binMaxPayload {
			break
		}
		if kind == binKindData {
			n++
		}
		off += binFrameLen + payloadLen
	}
	return n
}

// walk parses the frame structure of a binary log held in data.
func walk(data []byte) (logWalk, error) {
	var w logWalk
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != binMagic {
		return w, errors.New("record: missing binary magic")
	}
	w.refs = make([]blockRef, 0, countDataFrames(data))
	le := binary.LittleEndian
	w.dataEnd = int64(len(binMagic))
	for size := int64(len(data)); w.dataEnd < size; {
		off := w.dataEnd
		if size-off < binFrameLen {
			w.torn = true // partial frame: crash signature
			return w, nil
		}
		frame := data[off : off+binFrameLen]
		kind := frame[0]
		nRows := int(le.Uint32(frame[1:]))
		firstRun := int(int32(le.Uint32(frame[5:])))
		lastRun := int(int32(le.Uint32(frame[9:])))
		payloadLen := int(le.Uint32(frame[13:]))
		// Structural sanity. The writer emits only well-formed frames, and a
		// crash can only truncate the file (leaving a partial frame or
		// payload), so a complete frame that is structurally impossible is
		// corruption, not a crash.
		switch {
		case kind != binKindDict && kind != binKindData:
			w.err = fmt.Errorf("record: corrupt block at offset %d: unknown kind 0x%02x", off, kind)
			return w, nil
		case payloadLen > binMaxPayload || nRows <= 0:
			w.err = fmt.Errorf("record: corrupt block at offset %d: implausible frame", off)
			return w, nil
		case kind == binKindData && payloadLen != nRows*binRowBytes:
			w.err = fmt.Errorf("record: corrupt block at offset %d: payload/row-count mismatch", off)
			return w, nil
		}
		if size-off-binFrameLen < int64(payloadLen) {
			w.torn = true // partial payload: crash signature
			return w, nil
		}
		payload := data[off+binFrameLen : off+binFrameLen+int64(payloadLen)]
		final := off+binFrameLen+int64(payloadLen) == size
		if kind == binKindDict {
			if crc := crc32.Update(crc32.Update(0, binCRC, frame[:17]), binCRC, payload); crc != le.Uint32(frame[17:]) {
				w.failAt(off, final, "checksum mismatch")
				return w, nil
			}
			// A rejected block adds no entries: the dictionary must be the
			// one of the accepted prefix, which a writer continues.
			had := len(w.dict)
			for p := 0; p < len(payload); {
				if p+4 > len(payload) {
					w.dict = w.dict[:had]
					w.failAt(off, final, "truncated dictionary entry")
					return w, nil
				}
				l := int(le.Uint32(payload[p:]))
				p += 4
				if l < 0 || p+l > len(payload) {
					w.dict = w.dict[:had]
					w.failAt(off, final, "dictionary entry overruns payload")
					return w, nil
				}
				// string() copies the bytes out of the log: decoded rows must
				// never retain mapped memory past release.
				w.dict = append(w.dict, string(payload[p:p+l]))
				p += l
			}
			if got := len(w.dict) - had; got != nRows {
				w.dict = w.dict[:had]
				w.failAt(off, final, fmt.Sprintf("dictionary has %d entries, frame says %d", got, nRows))
				return w, nil
			}
		} else {
			w.refs = append(w.refs, blockRef{
				off: off, n: nRows, firstRow: w.rows,
				dictLen: len(w.dict), firstRun: firstRun, lastRun: lastRun,
			})
			w.rows += nRows
		}
		w.dataEnd = off + binFrameLen + int64(payloadLen)
	}
	return w, nil
}

// settle resolves the walk's pending verdict against the lowest-offset data
// block that failed verification (bad < 0: none did). A failing final block
// is a torn tail: the accepted prefix ends at its frame. Otherwise the
// failure, or failing that the walk's own pending error, is returned.
func (w *logWalk) settle(size int64, bad int, derr error) error {
	if bad < 0 {
		return w.err
	}
	ref := w.refs[bad]
	if w.err != nil || w.torn || ref.end() != size {
		return fmt.Errorf("record: corrupt block at offset %d: %s", ref.off, derr)
	}
	w.torn, w.dataEnd, w.rows, w.refs = true, ref.off, ref.firstRow, w.refs[:bad]
	return nil
}

// blockPayload returns the payload of data block ref after checking its
// CRC over frame and payload.
func blockPayload(data []byte, ref blockRef) ([]byte, error) {
	frame := data[ref.off : ref.off+binFrameLen]
	payload := data[ref.off+binFrameLen : ref.end()]
	if crc := crc32.Update(crc32.Update(0, binCRC, frame[:17]), binCRC, payload); crc != binary.LittleEndian.Uint32(frame[17:]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// decodeRef checksum-verifies one data block and decodes it into blk
// (len ref.n), in order: CRC, column decode, frame run-range cross-check.
func decodeRef(data []byte, ref blockRef, dict []string, blk []Row) error {
	payload, err := blockPayload(data, ref)
	if err != nil {
		return err
	}
	if err := decodeBlockInto(payload, ref.n, dict[:ref.dictLen], blk); err != nil {
		return err
	}
	if blk[0].Run != ref.firstRun || blk[ref.n-1].Run != ref.lastRun {
		return errors.New("frame run range disagrees with rows")
	}
	return nil
}

// checkRef makes every check decodeRef makes on one data block, in the same
// order and with the same error text, without building its rows: CRC,
// nanoseconds below 1e9, dictionary ids below ref.dictLen column by column,
// then the frame's run range against the ends of the run column.
func checkRef(data []byte, ref blockRef) error {
	payload, err := blockPayload(data, ref)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	n := ref.n
	if i := firstAtLeast(payload[8*n:12*n], 1e9); i >= 0 {
		return fmt.Errorf("bad nanoseconds %d", le.Uint32(payload[8*n+4*i:]))
	}
	// The eight id columns are contiguous, so one pass in payload order
	// meets them column by column, as decodeBlockInto does.
	nd := uint32(ref.dictLen)
	if i := firstAtLeast(payload[36*n:68*n], nd); i >= 0 {
		return fmt.Errorf("dictionary id %d out of range (%d entries)", le.Uint32(payload[36*n+4*i:]), nd)
	}
	runs := payload[16*n : 20*n]
	if int(int32(le.Uint32(runs))) != ref.firstRun || int(int32(le.Uint32(runs[4*(n-1):]))) != ref.lastRun {
		return errors.New("frame run range disagrees with rows")
	}
	return nil
}

// firstAtLeast returns the index of the first little-endian uint32 in col
// that is at least limit, or -1. Valid blocks have none, so it takes the
// column's maximum without a branch per value and searches only on a hit.
func firstAtLeast(col []byte, limit uint32) int {
	var hi uint32
	for b := col; len(b) >= 4; b = b[4:] {
		hi = max(hi, binary.LittleEndian.Uint32(b))
	}
	if hi < limit {
		return -1
	}
	for i := 0; ; i++ {
		if binary.LittleEndian.Uint32(col[4*i:]) >= limit {
			return i
		}
	}
}

// forEachRef runs check on every data block index below n, fanning out
// across min(ReadParallelism, n) workers that claim blocks in chunks from an
// atomic work counter, and returns the index and error of the lowest-offset
// failing block, or -1. Blocks past a known failure are skipped, so the
// result is the one a serial pass would give. A worker's panic (a fault
// included) is re-raised on the caller once every worker has stopped, for
// the caller's catchFault.
func forEachRef(n int, check func(i int) error) (int, error) {
	p := min(ReadParallelism(), n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := check(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	// About 256 claims per worker: enough to balance uneven blocks, few
	// enough that the counter is not contended on logs of tiny blocks.
	chunk := int64(1 + n/(256*p))
	var (
		next     atomic.Int64
		minBad   atomic.Int64 // lowest failing index so far, -1 after a panic
		mu       sync.Mutex   // guards bad, badErr
		bad      = n
		badErr   error
		panicked atomic.Pointer[any]
		wg       sync.WaitGroup
	)
	minBad.Store(int64(n))
	fail := func(i int64, err error) {
		mu.Lock()
		if int(i) < bad {
			bad, badErr = int(i), err
		}
		mu.Unlock()
		for {
			cur := minBad.Load()
			if i >= cur || minBad.CompareAndSwap(cur, i) {
				return
			}
		}
	}
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					minBad.Store(-1) // stop the other workers
				}
			}()
			for lo := next.Add(chunk) - chunk; lo < int64(n); lo = next.Add(chunk) - chunk {
				for i := lo; i < min(lo+chunk, int64(n)); i++ {
					if i > minBad.Load() {
						return
					}
					if err := check(int(i)); err != nil {
						fail(i, err)
						break // the rest of the chunk lies past the failure
					}
				}
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	if bad < n {
		return bad, badErr
	}
	return -1, nil
}

// readLog decodes a whole binary log held in data, appending to dst (reusing
// its backing capacity). sc.torn reports a repairable torn tail, including a
// final-block verification failure; sc carries no run bookkeeping.
func readLog(data []byte, dst []Row) (sc binScan, rows []Row, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer catchFault(&err)
	w, err := walk(data)
	if err != nil {
		return sc, nil, err
	}
	base := len(dst)
	need := base + w.rows
	if cap(dst) < need {
		grown := make([]Row, need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	refs, dict, out := w.refs, w.dict, dst[base:need]
	bad, derr := forEachRef(len(refs), func(i int) error {
		ref := refs[i]
		return decodeRef(data, ref, dict, out[ref.firstRow:ref.firstRow+ref.n:ref.firstRow+ref.n])
	})
	if err := w.settle(int64(len(data)), bad, derr); err != nil {
		return sc, nil, err
	}
	return w.binScan, dst[:base+w.rows], nil
}

// streamLog delivers the decoded data blocks of a binary log held in data to
// sink in frame order, through one reused batch. A torn tail is reported in
// sc.torn, not as an error; sc carries no run bookkeeping.
func streamLog(data []byte, sink func([]Row) error) (sc binScan, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer catchFault(&err)
	w, err := walk(data)
	if err != nil {
		return sc, err
	}
	var batch []Row
	for i, ref := range w.refs {
		// SHARP's writer caps blocks at binBlockRows, but any row count
		// whose payload length checks out is structurally valid; grow
		// rather than reject a foreign block.
		if cap(batch) < ref.n {
			batch = make([]Row, max(ref.n, min(w.rows, binBlockRows)))
		}
		blk := batch[:ref.n]
		if derr := decodeRef(data, ref, w.dict, blk); derr != nil {
			err = w.settle(int64(len(data)), i, derr)
			return w.binScan, err
		}
		if err := sink(blk); err != nil {
			return w.binScan, err
		}
	}
	return w.binScan, w.err
}

// checkLog is the repair scan of a binary log held in data: it accepts and
// rejects exactly what readLog does, with the same torn verdict and error
// text, but checks the data blocks without decoding them, and adds the run
// bookkeeping crash repair needs (lastRun, runStartRows).
func checkLog(data []byte) (sc binScan, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer catchFault(&err)
	w, err := walk(data)
	if err != nil {
		return sc, err
	}
	refs := w.refs
	bad, derr := forEachRef(len(refs), func(i int) error { return checkRef(data, refs[i]) })
	if err := w.settle(int64(len(data)), bad, derr); err != nil {
		return sc, err
	}
	w.lastRun, w.runStartRows = runTail(data, w.refs, w.rows)
	return w.binScan, nil
}

// runTail is the CSV scanner's run bookkeeping over the first n rows of the
// checked blocks refs: the run index of row n-1 and the row where the
// trailing rows of that run begin, with run 0 before row 0 (so an empty
// prefix yields 0, 0). It scans back to front: a block's raw run column is
// read only while the trailing run may reach into it, and a block whose
// frame ends in another run ends the scan without touching its payload.
func runTail(data []byte, refs []blockRef, n int) (lastRun, runStartRows int) {
	if n == 0 {
		return 0, 0
	}
	runAt := func(ref blockRef, i int) int {
		return int(int32(binary.LittleEndian.Uint32(data[ref.off+binFrameLen+int64(16*ref.n+4*i):])))
	}
	k := sort.Search(len(refs), func(i int) bool { return refs[i].firstRow+refs[i].n >= n })
	ref, end := refs[k], n-refs[k].firstRow // rows of the block inside the prefix
	lastRun = runAt(ref, end-1)
	for {
		for i := end - 1; i >= 0; i-- {
			if runAt(ref, i) != lastRun {
				return lastRun, ref.firstRow + i + 1
			}
		}
		if k--; k < 0 {
			return lastRun, 0
		}
		if ref, end = refs[k], refs[k].n; ref.lastRun != lastRun {
			return lastRun, ref.firstRow + ref.n
		}
	}
}

// checkLogFile is checkLog over the binary log file at path.
func checkLogFile(path string) (binScan, error) {
	b, err := loadLog(path)
	if err != nil {
		return binScan{}, err
	}
	defer b.release()
	return checkLog(b.data)
}

// readLogFile is readLog over the binary log file at path.
func readLogFile(path string, dst []Row) (binScan, []Row, error) {
	b, err := loadLog(path)
	if err != nil {
		return binScan{}, nil, err
	}
	defer b.release()
	return readLog(b.data, dst)
}

// streamLogFile is streamLog over the binary log file at path.
func streamLogFile(path string, sink func([]Row) error) (binScan, error) {
	b, err := loadLog(path)
	if err != nil {
		return binScan{}, err
	}
	defer b.release()
	return streamLog(b.data, sink)
}

// ReadFileInto is ReadFile reusing dst's backing array: dst is truncated to
// zero length and the decoded rows are appended, so a caller replaying many
// logs of similar size (the service recovery loop, the replay benchmarks)
// pays for its row slab once instead of re-zeroing hundreds of megabytes per
// read. Pass nil for plain ReadFile behavior.
func ReadFileInto(path string, dst []Row) ([]Row, error) {
	dst = dst[:0]
	format, err := sniffRead(path)
	if err != nil {
		return nil, err
	}
	switch format {
	case formatSegmented:
		return readSegmented(path, dst)
	case FormatBinary:
		_, rows, err := readLogFile(path, dst)
		return rows, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readInto(bufio.NewReaderSize(f, 1<<16), dst)
}
