// Mapped zero-copy read path for binary columnar logs. The streaming scanner
// in binary.go pays a bufio copy plus a fresh decode pass per block on one
// goroutine; at 10⁷–10⁸ rows a resume replay or cache hit spends most of its
// time in read(2) and allocator zeroing. This file decodes column slices
// directly out of a syscall.Mmap view of the file instead: a serial frame
// walk validates structure and dictionary blocks (whose strings are copied
// out of the mapping, so decoded rows never alias it), then the independent
// data blocks are checksum-verified and decoded by a bounded worker pool —
// each block lands in a disjoint window of the destination slab, so there is
// no merge step and steady-state replay allocates nothing.
//
// The torn/corruption classification is bit-for-bit the streaming scanner's:
// the lowest-offset failing block decides the outcome, torn if it is the
// file's final block, hard corruption otherwise, with identical error
// strings. Platforms without mmap — or runs with SHARP_RECORD_NOMMAP=1 — use
// the streaming scanner unchanged.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// NoMmapEnv names the environment variable that disables the mmap fast path
// (value "1"), forcing every reader down the portable streaming scanner.
// Used by the crash-test suite to exercise the fallback.
const NoMmapEnv = "SHARP_RECORD_NOMMAP"

func mmapDisabled() bool { return os.Getenv(NoMmapEnv) == "1" }

// readParallelism holds the configured block-decode parallelism
// (0 = GOMAXPROCS at call time).
var readParallelism atomic.Int64

// SetReadParallelism bounds the worker pool used to decode independent data
// blocks on the mapped read path. It is wired to the CLI --parallel flags:
// 0 restores the default (GOMAXPROCS at call time); negative values are
// clamped to 1 (strictly serial decode).
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

// mappedLog is a read-only mapping of a log file. The descriptor is closed
// immediately (the mapping outlives it); unmap must be called exactly once.
type mappedLog struct {
	data  []byte
	unmap func()
}

// openMapped maps the file at path read-only. It returns (nil, nil) when the
// fast path is unavailable — mmap unsupported, disabled, or refused by the
// kernel (e.g. an empty file) — in which case callers fall back to the
// streaming scanner, preserving behavior exactly.
func openMapped(path string) (*mappedLog, error) {
	if !mmapSupported || mmapDisabled() {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, nil
	}
	return &mappedLog{data: data, unmap: unmap}, nil
}

// blockRef locates one data block inside a mapped log. dictLen snapshots the
// dictionary length visible to the block, so a block referencing ids its
// preceding dict blocks never introduced fails exactly like the streaming
// scanner ("dictionary id N out of range").
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

// mapWalk is the result of the serial structure pass over a mapped log.
// Dictionary blocks are fully validated and decoded during the walk; data
// blocks are deferred to the worker pool, so a walk-level verdict (torn or
// err) is only *pending*: it stands unless an earlier data block fails
// verification, in which case that block — the lowest-offset failure, as in
// the streaming scan — decides the outcome instead.
type mapWalk struct {
	refs  []blockRef
	dict  []string
	total int   // rows across refs
	torn  bool  // pending torn-tail verdict
	err   error // pending hard-corruption verdict
}

// failAt applies the streaming scanner's classification to a bad dict block:
// torn if it is the file's final block, hard corruption otherwise.
func (w mapWalk) failAt(off int64, final bool, msg string) mapWalk {
	if final {
		w.torn = true
	} else {
		w.err = fmt.Errorf("record: corrupt block at offset %d: %s", off, msg)
	}
	return w
}

// walkMapped parses the frame structure of a mapped binary log. It mirrors
// scanBinaryImpl block for block, except that data-block checksums and
// decodes are deferred to the caller via refs.
func walkMapped(data []byte) (mapWalk, error) {
	var w mapWalk
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != binMagic {
		return w, errors.New("record: missing binary magic")
	}
	le := binary.LittleEndian
	off, size := int64(len(binMagic)), int64(len(data))
	for off < size {
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
				return w.failAt(off, final, "checksum mismatch"), nil
			}
			got := 0
			for p := 0; p < len(payload); {
				if p+4 > len(payload) {
					return w.failAt(off, final, "truncated dictionary entry"), nil
				}
				l := int(le.Uint32(payload[p:]))
				p += 4
				if l < 0 || p+l > len(payload) {
					return w.failAt(off, final, "dictionary entry overruns payload"), nil
				}
				// string() copies the bytes out of the mapping: decoded rows
				// must never retain mapped memory past unmap.
				w.dict = append(w.dict, string(payload[p:p+l]))
				p += l
				got++
			}
			if got != nRows {
				return w.failAt(off, final, fmt.Sprintf("dictionary has %d entries, frame says %d", got, nRows)), nil
			}
		} else {
			w.refs = append(w.refs, blockRef{
				off: off, n: nRows, firstRow: w.total,
				dictLen: len(w.dict), firstRun: firstRun, lastRun: lastRun,
			})
			w.total += nRows
		}
		off += binFrameLen + int64(payloadLen)
	}
	return w, nil
}

// decodeRef checksum-verifies one data block and decodes it into blk
// (len ref.n), in the streaming scanner's validation order: CRC, column
// decode, frame run-range cross-check.
func decodeRef(data []byte, ref blockRef, dict []string, blk []Row) error {
	frame := data[ref.off : ref.off+binFrameLen]
	payload := data[ref.off+binFrameLen : ref.end()]
	if crc := crc32.Update(crc32.Update(0, binCRC, frame[:17]), binCRC, payload); crc != binary.LittleEndian.Uint32(frame[17:]) {
		return errors.New("checksum mismatch")
	}
	if err := decodeBlockInto(payload, ref.n, dict[:ref.dictLen], blk); err != nil {
		return err
	}
	if blk[0].Run != ref.firstRun || blk[ref.n-1].Run != ref.lastRun {
		return errors.New("frame run range disagrees with rows")
	}
	return nil
}

// decodeRefs decodes every data block into its disjoint window of out,
// fanning out across min(ReadParallelism, len(refs)) workers over an atomic
// work counter. Windows never overlap, so no ordering or merge is needed; it
// returns the index and error of the lowest-offset failing block, or -1.
func decodeRefs(data []byte, refs []blockRef, dict []string, out []Row) (int, error) {
	window := func(ref blockRef) []Row {
		return out[ref.firstRow : ref.firstRow+ref.n : ref.firstRow+ref.n]
	}
	p := ReadParallelism()
	if p > len(refs) {
		p = len(refs)
	}
	if p <= 1 {
		for i, ref := range refs {
			if err := decodeRef(data, ref, dict, window(ref)); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	var (
		next   atomic.Int64
		minBad atomic.Int64
		errs   = make([]error, len(refs))
		wg     sync.WaitGroup
	)
	minBad.Store(int64(len(refs)))
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(refs) || int64(i) > minBad.Load() {
					return
				}
				if err := decodeRef(data, refs[i], dict, window(refs[i])); err != nil {
					errs[i] = err
					for {
						cur := minBad.Load()
						if int64(i) >= cur || minBad.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if bad := int(minBad.Load()); bad < len(refs) {
		return bad, errs[bad]
	}
	return -1, nil
}

// readMapped decodes a whole mapped log, appending to dst (reusing its
// backing capacity). torn reports a repairable torn tail — including a
// final-block verification failure, exactly as in the streaming scanner.
func readMapped(data []byte, dst []Row) ([]Row, bool, error) {
	w, err := walkMapped(data)
	if err != nil {
		return nil, false, err
	}
	base := len(dst)
	need := base + w.total
	if cap(dst) < need {
		grown := make([]Row, need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	if bad, derr := decodeRefs(data, w.refs, w.dict, dst[base:need]); bad >= 0 {
		ref := w.refs[bad]
		if w.err == nil && !w.torn && ref.end() == int64(len(data)) {
			return dst[:base+ref.firstRow], true, nil // torn final block
		}
		return nil, false, fmt.Errorf("record: corrupt block at offset %d: %s", ref.off, derr)
	}
	if w.err != nil {
		return nil, false, w.err
	}
	return dst, w.torn, nil
}

// readBinaryFileFast is the mapped implementation behind ReadFile for binary
// logs; ok=false means the fast path is unavailable and the caller must use
// the streaming scanner instead.
func readBinaryFileFast(path string, dst []Row) (rows []Row, torn, ok bool, err error) {
	m, err := openMapped(path)
	if err != nil {
		return nil, false, true, err
	}
	if m == nil {
		return nil, false, false, nil
	}
	defer m.unmap()
	rows, torn, err = readMapped(m.data, dst)
	return rows, torn, true, err
}

// streamMapped delivers decoded blocks to sink in frame order. With one
// worker a single reused batch makes the loop allocation-free; with more,
// pooled batches flow through an ordered hand-off so sink sees blocks in
// exactly the streaming scanner's order while they decode concurrently. A
// torn tail is reported, not an error, mirroring scanBinaryStream.
func streamMapped(data []byte, sink func([]Row) error) (bool, error) {
	w, err := walkMapped(data)
	if err != nil {
		return false, err
	}
	// fail resolves a block-verification failure at data-block index i.
	fail := func(i int, derr error) (bool, error) {
		ref := w.refs[i]
		if w.err == nil && !w.torn && ref.end() == int64(len(data)) {
			return true, nil // torn final block: silently dropped
		}
		return false, fmt.Errorf("record: corrupt block at offset %d: %s", ref.off, derr)
	}
	p := ReadParallelism()
	if p > len(w.refs) {
		p = len(w.refs)
	}
	if p <= 1 {
		batch := make([]Row, binBlockRows)
		for i, ref := range w.refs {
			// SHARP's writer caps blocks at binBlockRows, but any nRows whose
			// payload length checks out is structurally valid (the streaming
			// scanner decodes it); grow rather than panic on a foreign block.
			if ref.n > len(batch) {
				batch = make([]Row, ref.n)
			}
			blk := batch[:ref.n]
			if derr := decodeRef(data, ref, w.dict, blk); derr != nil {
				return fail(i, derr)
			}
			if err := sink(blk); err != nil {
				return false, err
			}
		}
		return w.torn, w.err
	}
	type res struct {
		blk []Row
		err error
	}
	type job struct {
		i int
		c chan res
	}
	pool := sync.Pool{New: func() any { return make([]Row, binBlockRows) }}
	jobs := make(chan job, p)
	order := make(chan chan res, 2*p)
	done := make(chan struct{})
	var stop sync.Once
	quit := func() { stop.Do(func() { close(done) }) }
	// On early return (sink error, corrupt block) the caller unmaps data, so
	// no worker may be mid-decode when we leave: close done, then wait for
	// every worker to drain (deferred LIFO: quit before Wait).
	var wg sync.WaitGroup
	defer wg.Wait()
	defer quit()
	go func() {
		defer close(order)
		defer close(jobs)
		for i := range w.refs {
			c := make(chan res, 1)
			select {
			case jobs <- job{i: i, c: c}:
			case <-done:
				return
			}
			select {
			case order <- c:
			case <-done:
				return
			}
		}
	}()
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case j, open := <-jobs:
					if !open {
						return
					}
					ref := w.refs[j.i]
					blk := pool.Get().([]Row)
					if cap(blk) < ref.n { // oversized foreign block: see serial path
						blk = make([]Row, ref.n)
					}
					blk = blk[:ref.n]
					j.c <- res{blk: blk, err: decodeRef(data, ref, w.dict, blk)}
				case <-done:
					return
				}
			}
		}()
	}
	i := 0
	for c := range order {
		r := <-c
		if r.err != nil {
			return fail(i, r.err)
		}
		if err := sink(r.blk); err != nil {
			return false, err
		}
		pool.Put(r.blk[:cap(r.blk)]) //nolint:staticcheck // reused block buffers
		i++
	}
	return w.torn, w.err
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
		if rows, _, ok, err := readBinaryFileFast(path, dst); ok {
			return rows, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		_, rows, err := scanBinaryDst(f, dst)
		return rows, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readInto(bufio.NewReaderSize(f, 1<<16), dst)
}
