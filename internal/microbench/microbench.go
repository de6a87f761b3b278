// Package microbench provides SHARP's eleven built-in microbenchmark
// functions (§IV): stateless, atomic workloads that each stress one aspect
// of the system — CPU arithmetic, memory allocation and bandwidth, hashing,
// sorting, compression, I/O, synchronization, scheduling latency, and
// serialization. They are the "functions" of the FaaS vocabulary, suitable
// for any backend, and complement the full Rodinia applications.
//
// Each microbenchmark is deterministic given a seed, returns its metrics as
// a map (exec_time is measured by the backend; additional metrics such as
// bytes processed or ops are reported by the function itself), and is
// registered into an in-process backend via Register.
package microbench

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sharp/internal/backend"
)

// Func is a microbenchmark body: it performs its work and returns metrics.
type Func func(ctx context.Context, seed uint64) (map[string]float64, error)

// Spec describes one microbenchmark.
type Spec struct {
	// Name is the registration name ("cpu-spin", ...).
	Name string
	// Description explains what the function stresses.
	Description string
	// Run is the body.
	Run Func
}

func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// All returns the eleven microbenchmarks.
func All() []Spec {
	return []Spec{
		{
			Name:        "cpu-spin",
			Description: "floating-point arithmetic loop (CPU core throughput)",
			Run:         cpuSpin,
		},
		{
			Name:        "mem-alloc",
			Description: "small-object allocation churn (allocator and GC pressure)",
			Run:         memAlloc,
		},
		{
			Name:        "mem-stream",
			Description: "sequential memory read/write over a large buffer (bandwidth)",
			Run:         memStream,
		},
		{
			Name:        "hash",
			Description: "SHA-256 over a pseudo-random buffer (crypto throughput)",
			Run:         hashBench,
		},
		{
			Name:        "sort",
			Description: "sorting a pseudo-random float slice (branchy CPU work)",
			Run:         sortBench,
		},
		{
			Name:        "compress",
			Description: "DEFLATE compression of semi-compressible data",
			Run:         compressBench,
		},
		{
			Name:        "io-file",
			Description: "write/read/delete a temporary file (filesystem latency)",
			Run:         ioFile,
		},
		{
			Name:        "sync-contend",
			Description: "mutex contention across goroutines (synchronization cost)",
			Run:         syncContend,
		},
		{
			Name:        "sched-yield",
			Description: "goroutine ping-pong over channels (scheduler latency)",
			Run:         schedYield,
		},
		{
			Name:        "json-codec",
			Description: "JSON marshal/unmarshal of a nested document (serialization)",
			Run:         jsonCodec,
		},
		{
			Name:        "matmul",
			Description: "dense matrix multiplication (FLOP-heavy kernel)",
			Run:         matmul,
		},
	}
}

// Register adds every microbenchmark to an in-process backend under its
// spec name.
func Register(b *backend.InProcess) {
	for _, s := range All() {
		b.Register(s.Name, backend.Func(s.Run))
	}
}

func cpuSpin(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	x := r.Float64() + 1
	const iters = 2_000_00
	for i := 0; i < iters; i++ {
		x = math.Sqrt(x*x+1) * 0.999
		if x < 1 {
			x += 1
		}
	}
	return map[string]float64{"ops": iters, "sink": x}, nil
}

func memAlloc(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	const objects = 50_000
	keep := make([][]byte, 0, 128)
	total := 0
	for i := 0; i < objects; i++ {
		size := 16 + r.IntN(240)
		buf := make([]byte, size)
		buf[0] = byte(i)
		total += size
		// Retain a sliding window so some objects survive a GC cycle.
		if len(keep) < cap(keep) {
			keep = append(keep, buf)
		} else {
			keep[i%cap(keep)] = buf
		}
	}
	return map[string]float64{"allocated_bytes": float64(total), "retained": float64(len(keep))}, nil
}

func memStream(ctx context.Context, seed uint64) (map[string]float64, error) {
	const size = 4 << 20 // 4 MiB
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	sum := 0
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < size; i += 64 {
			sum += int(buf[i])
			buf[i] = byte(sum)
		}
	}
	return map[string]float64{"bytes": float64(4 * size), "sink": float64(sum % 251)}, nil
}

func hashBench(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(r.Uint32())
	}
	var digest [32]byte
	for pass := 0; pass < 4; pass++ {
		digest = sha256.Sum256(buf)
		copy(buf, digest[:])
	}
	return map[string]float64{"bytes": float64(4 << 20), "sink": float64(digest[0])}, nil
}

func sortBench(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	const n = 200_000
	data := make([]float64, n)
	for i := range data {
		data[i] = r.Float64()
	}
	sort.Float64s(data)
	if !sort.Float64sAreSorted(data) {
		return nil, fmt.Errorf("microbench: sort produced unsorted output")
	}
	return map[string]float64{"elements": n, "sink": data[n/2]}, nil
}

func compressBench(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	// Semi-compressible: repeated words plus noise.
	var src bytes.Buffer
	words := []string{"throughput ", "latency ", "distribution ", "reproducible "}
	for src.Len() < 1<<19 {
		src.WriteString(words[r.IntN(len(words))])
		if r.IntN(8) == 0 {
			fmt.Fprintf(&src, "%x", r.Uint64())
		}
	}
	var dst bytes.Buffer
	w, err := flate.NewWriter(&dst, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(src.Bytes()); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// Verify round trip.
	rd := flate.NewReader(bytes.NewReader(dst.Bytes()))
	back, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(back, src.Bytes()) {
		return nil, fmt.Errorf("microbench: compression round trip failed")
	}
	ratio := float64(src.Len()) / float64(dst.Len())
	return map[string]float64{"in_bytes": float64(src.Len()), "out_bytes": float64(dst.Len()), "ratio": ratio}, nil
}

func ioFile(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	buf := make([]byte, 256<<10)
	for i := range buf {
		buf[i] = byte(r.Uint32())
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("sharp-io-%d-%d", os.Getpid(), seed))
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	back, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(back, buf) {
		return nil, fmt.Errorf("microbench: file round trip failed")
	}
	return map[string]float64{"bytes": float64(2 * len(buf))}, nil
}

func syncContend(ctx context.Context, seed uint64) (map[string]float64, error) {
	const goroutines = 8
	const increments = 20_000
	var mu sync.Mutex
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*increments {
		return nil, fmt.Errorf("microbench: lost updates: %d", counter)
	}
	return map[string]float64{"increments": float64(counter), "goroutines": goroutines}, nil
}

func schedYield(ctx context.Context, seed uint64) (map[string]float64, error) {
	const rounds = 20_000
	ping := make(chan struct{})
	pong := make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	elapsed := time.Since(start)
	return map[string]float64{
		"roundtrips":     rounds,
		"ns_per_switch":  float64(elapsed.Nanoseconds()) / (2 * rounds),
		"context_pairs":  rounds,
		"elapsed_second": elapsed.Seconds(),
	}, nil
}

func jsonCodec(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	type inner struct {
		ID     int       `json:"id"`
		Name   string    `json:"name"`
		Values []float64 `json:"values"`
	}
	type doc struct {
		Experiment string           `json:"experiment"`
		Items      []inner          `json:"items"`
		Meta       map[string]int64 `json:"meta"`
	}
	d := doc{Experiment: "microbench", Meta: map[string]int64{}}
	for i := 0; i < 200; i++ {
		it := inner{ID: i, Name: fmt.Sprintf("item-%d", i)}
		for j := 0; j < 20; j++ {
			it.Values = append(it.Values, r.Float64())
		}
		d.Items = append(d.Items, it)
		d.Meta[it.Name] = int64(r.Uint32())
	}
	var bytesTotal int
	for pass := 0; pass < 5; pass++ {
		data, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		bytesTotal += len(data)
		var back doc
		if err := json.Unmarshal(data, &back); err != nil {
			return nil, err
		}
		if len(back.Items) != len(d.Items) {
			return nil, fmt.Errorf("microbench: json round trip lost items")
		}
	}
	return map[string]float64{"bytes": float64(bytesTotal)}, nil
}

func matmul(ctx context.Context, seed uint64) (map[string]float64, error) {
	r := rng(seed)
	const n = 96
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	// Spot-verify one element.
	want := 0.0
	for k := 0; k < n; k++ {
		want += a[k] * b[k*n]
	}
	if math.Abs(c[0]-want) > 1e-9 {
		return nil, fmt.Errorf("microbench: matmul verification failed")
	}
	return map[string]float64{"flops": float64(2 * n * n * n), "sink": c[n*n-1]}, nil
}
