package record

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchRows builds a deterministic million-row-scale campaign log: a
// realistic mix of runs, instances, metrics, and occasional failure rows,
// with nanosecond timestamps. Determinism matters — bin_bytes_per_row is
// gated as an exact reproduction target.
func benchRows(n int) []Row {
	rows := make([]Row, n)
	// Values and timestamps carry full float64 / nanosecond precision, like
	// real campaign rows (Sim draws are full-precision lognormals and the
	// launcher clock has nanosecond resolution); a deterministic xorshift
	// keeps bin_bytes_per_row an exact reproduction target.
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range rows {
		rows[i] = benchRow(i, &rng)
	}
	return rows
}

// benchRow computes row i of the deterministic benchmark log, advancing the
// xorshift state — the streaming form of benchRows, for logs too large to
// materialize.
func benchRow(i int, rng *uint64) Row {
	base := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	metrics := [3]string{"exec_time", "detection_time", "throughput"}
	units := [3]string{"seconds", "seconds", "ops"}
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	m := i % 3
	r := Row{
		Timestamp:  base.Add(time.Duration(i)*137137*time.Nanosecond + time.Duration(*rng%997)),
		Experiment: "bench1e6", Workload: "hotspot", Backend: "sim",
		Machine: fmt.Sprintf("machine%d", i%4+1),
		Day:     i%5 + 1, Run: i/6 + 1, Instance: i%2 + 1,
		Metric: metrics[m], Value: 1.5 + float64(*rng>>11)/float64(1<<53),
		Unit: units[m], Status: StatusOK, Attempt: 1,
	}
	if i%997 == 0 {
		r.Status, r.Metric = StatusError, MetricError
		r.Value, r.Error = 1, "injected: worker lost"
	}
	return r
}

// benchWrite writes rows to path through the public Writer facade and
// returns the file size.
func benchWrite(b *testing.B, path string, rows []Row) int64 {
	b.Helper()
	w, err := CreateDurable(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteAll(rows); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return st.Size()
}

const benchN = 1_000_000

// BenchmarkRecordWrite1e6 measures raw append throughput of one million
// tidy rows per format.
func BenchmarkRecordWrite1e6(b *testing.B) {
	rows := benchRows(benchN)
	for _, ext := range []string{"csv", "sharpb"} {
		b.Run(ext, func(b *testing.B) {
			dir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchWrite(b, filepath.Join(dir, fmt.Sprintf("w%d.%s", i, ext)), rows)
			}
			b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkReplay1e6 measures full-log decode (the resume replay path) of
// one million rows per format.
func BenchmarkReplay1e6(b *testing.B) {
	rows := benchRows(benchN)
	for _, ext := range []string{"csv", "sharpb"} {
		b.Run(ext, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "replay."+ext)
			benchWrite(b, path, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != benchN {
					b.Fatalf("decoded %d rows", len(got))
				}
			}
			b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkTornRepair1e6 times the repair that starts every resume of a
// crashed campaign: OpenAppend+Close of a million-row log written in 4-row
// blocks (the shape a writer flushing after every run leaves), torn 7 bytes
// short. Each iteration tears the log again, untimed.
// It measures timing only and gates nothing.
func BenchmarkTornRepair1e6(b *testing.B) {
	path := filepath.Join(b.TempDir(), "torn.sharpb")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w := newBinWriterCore(bw, binBlockRows)
	if _, err := bw.WriteString(binMagic); err != nil {
		b.Fatal(err)
	}
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < benchN; i++ { // streamed, like BenchmarkReplay1e7
		r := benchRow(i, &rng)
		if err := w.add(&r); err != nil {
			b.Fatal(err)
		}
		if (i+1)%4 == 0 {
			if err := w.emit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-7); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		w, rows, err := OpenAppend(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if want := benchN - 4*(i+1); rows != want {
			b.Fatalf("repaired log holds %d rows, want %d", rows, want)
		}
	}
}

// BenchmarkRecordReplaySpeedup1e6 times one record+replay cycle of a million
// rows in each format against an in-memory stream and reports the binary/CSV
// speedup. Record is a buffered encode of every row; replay streams the log
// back in reused batches — the binary log through the serial frame-walk
// stream over its in-memory bytes, the CSV log through csvBatches, the scan
// StreamFile runs (csv.Reader and parseRow) — into a per-run accumulator
// fold (the shape of resume's replay). Memory targets isolate the codec from the benchmark
// host's disk throughput — on a ~100 MB/s disk the write() calls alone would
// dominate both formats; the on-disk advantage shows up separately as
// bin_bytes_per_row (68 vs ~130 for CSV). speedup_x is gated as a floor (the
// binary codec must stay >=10x CSV); bin_bytes_per_row is deterministic for
// the fixed benchRows content and gated exactly.
func BenchmarkRecordReplaySpeedup1e6(b *testing.B) {
	rows := benchRows(benchN)
	replay := func(data []byte, format Format) {
		n, runs, lastRun := 0, 0, -1
		var sum float64
		fold := func(batch []Row) error {
			for i := range batch {
				if batch[i].Run != lastRun {
					lastRun, runs = batch[i].Run, runs+1
				}
				if batch[i].Status == StatusOK && batch[i].Metric == "exec_time" {
					sum += batch[i].Value
				}
				n++
			}
			return nil
		}
		var err error
		if format == FormatBinary {
			_, err = streamLog(data, fold)
		} else {
			err = csvBatches(bytes.NewReader(data), fold)
		}
		if err != nil {
			b.Fatal(err)
		}
		if n != benchN || runs != benchN/6+1 || sum == 0 {
			b.Fatalf("replayed %d rows, %d runs", n, runs)
		}
	}
	csvCycle := func(buf *bytes.Buffer) {
		buf.Reset()
		w := NewWriter(buf)
		if err := w.WriteAll(rows); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		replay(buf.Bytes(), FormatCSV)
	}
	binCycle := func(buf *bytes.Buffer) int64 {
		buf.Reset()
		bw := bufio.NewWriterSize(buf, 1<<16)
		w := newBinWriterCore(bw, binBlockRows)
		if _, err := bw.WriteString(binMagic); err != nil {
			b.Fatal(err)
		}
		for i := range rows {
			if err := w.add(&rows[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.emit(); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		replay(buf.Bytes(), FormatBinary)
		return int64(buf.Len())
	}
	time5 := func(fn func()) time.Duration {
		// Best of five, each after a fresh GC: the measurement must not pay
		// for the other format's garbage, and best-of rides out scheduler
		// noise on shared benchmark hosts.
		best := time.Duration(1 << 62)
		for t := 0; t < 5; t++ {
			runtime.GC()
			start := time.Now()
			fn()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	var csvBuf, binBuf bytes.Buffer
	var speedup, bytesPerRow float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var binSize int64
		binT := time5(func() { binSize = binCycle(&binBuf) })
		csvT := time5(func() { csvCycle(&csvBuf) })
		speedup = csvT.Seconds() / binT.Seconds()
		bytesPerRow = float64(binSize) / benchN
	}
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(bytesPerRow, "bin_bytes_per_row")
}

// BenchmarkReplay1e7 measures the mapped zero-copy reader against the
// streaming scanner it replaced on a ten-million-row log — resume replay at
// the scale where allocator traffic dominates. The streaming leg is the
// original crash replay exactly (scanReference): a buffered scan appending
// into an unhinted slab, with no capacity hint, so it grow-and-copies its way
// through ~2 GB of rows (it is timed once — it is the expensive thing being
// replaced). The mapped leg is ReadFileInto reusing its slab, the shape of
// the service recovery loop. mmap_speedup_x is gated as a floor in
// BENCH_pr9.json: the mapped path must stay >=3x the streaming scanner.
func BenchmarkReplay1e7(b *testing.B) {
	if !mmapSupported {
		b.Skip("no mmap on this platform")
	}
	const n = 10 * benchN
	path := filepath.Join(b.TempDir(), "replay1e7.sharpb")
	w, err := CreateDurable(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ { // streamed: 1e7 rows never materialize at once
		r := benchRow(i, &rng)
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	streaming := func() time.Duration {
		runtime.GC()
		start := time.Now()
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		_, rows, err := scanReference(f, nil, true, nil)
		if err != nil || len(rows) != n {
			b.Fatalf("streaming decoded %d rows, err=%v", len(rows), err)
		}
		return time.Since(start)
	}
	var dst []Row
	mapped := func() time.Duration {
		best := time.Duration(1 << 62)
		for t := 0; t < 3; t++ {
			runtime.GC()
			start := time.Now()
			var err error
			if dst, err = ReadFileInto(path, dst); err != nil || len(dst) != n {
				b.Fatalf("mapped decoded %d rows, err=%v", len(dst), err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	var speedup, mappedSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamT := streaming()
		mappedT := mapped()
		speedup = streamT.Seconds() / mappedT.Seconds()
		mappedSec = mappedT.Seconds()
	}
	b.ReportMetric(speedup, "mmap_speedup_x")
	b.ReportMetric(float64(n)/mappedSec, "rows/s")
}

// BenchmarkReplayReuse1e6 pins the steady-state allocation count of a mapped
// replay into a reused slab: after the first read owns the row slab, each
// further replay must allocate only the handful of per-read bookkeeping
// objects (mapping, block refs, dictionary strings) — not another
// hundreds-of-MB row slab. reuse_allocs is deterministic (parallelism pinned
// to 1) and gated exactly in BENCH_pr9.json.
func BenchmarkReplayReuse1e6(b *testing.B) {
	if !mmapSupported {
		b.Skip("no mmap on this platform")
	}
	path := filepath.Join(b.TempDir(), "reuse.sharpb")
	benchWrite(b, path, benchRows(benchN))
	prev := readParallelism.Load()
	readParallelism.Store(1)
	defer readParallelism.Store(prev)
	var dst []Row
	var err error
	if dst, err = ReadFileInto(path, dst); err != nil || len(dst) != benchN {
		b.Fatalf("warmup read: %d rows, err=%v", len(dst), err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if dst, err = ReadFileInto(path, dst); err != nil || len(dst) != benchN {
			b.Fatalf("reuse read: %d rows, err=%v", len(dst), err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = ReadFileInto(path, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(allocs, "reuse_allocs")
	b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
