package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few vCPUs of a shared machine, whose speed
// changes by tens of percent over seconds to minutes: the hypervisor
// takes CPU time away (steal), and neighbours on the same cores and memory
// slow the CPU time it does give. Every phase moves with it. To keep these
// swings out of the end-to-end metrics, every timed stretch is scaled by
// two factors:
//
//   - steal, measured over the stretch itself: the process's CPU time plus
//     the CPU time stolen from the VM, over the process's CPU time. The
//     process wanted that much CPU and got only its own share; the factor
//     is how much longer the stretch took for it (exact for CPU-bound work
//     on any number of threads; it over-corrects threads that hand work to
//     each other, see README.md).
//   - speed, measured around the unit (or set-up) the stretch is part of:
//     the CPU time a fixed reference workload, written here and
//     independent of the program, took on one thread just before and just
//     after, over refNominal. It measures how fast the CPU given to the
//     process ran.
//
// A stretch's scaled time is its wall time divided by both factors: the
// time it would take on a host that steals nothing and runs the reference
// in refNominal seconds. Only the program's code changes between commits,
// so a change to the program moves the scaled values and a change of host
// speed does not. Every run also prints the unscaled values.

// refNominal is the reference workload's CPU time on the reference host
// (an Intel Xeon VM with 2 vCPUs, Go 1.24) in a quiet spell.
const refNominal = 0.020

// refPages is how many fresh pages one pass of the reference workload
// faults in. The phases fault in their heap after every unit, when the
// scheduler returns memory to the OS, and the log readers fault in mapped
// files; the cost of a fault in a VM changes with the host's load.
const refPages = 512

// clkTck is the unit of /proc/stat, USER_HZ, which is 100 on Linux.
const clkTck = 100

// refState is the reference workload's working memory, allocated once so
// that the workload allocates nothing on the Go heap while timed; the only
// pages it faults in are those of its own short-lived mapping.
type refState struct {
	buf  []byte
	xs   []float64
	keys []string
	vals [][]byte
	m    map[string][]byte
}

func newRefState() *refState {
	s := &refState{buf: make([]byte, 64<<10), xs: make([]float64, 8192), m: map[string][]byte{}}
	for i := range s.buf {
		s.buf[i] = byte(i * 7)
	}
	for i := 0; i < 2048; i++ {
		s.keys = append(s.keys, "key/"+strconv.Itoa(i*31))
		s.vals = append(s.vals, make([]byte, 16+i%48))
	}
	s.work()
	return s
}

// work runs the reference workload once: hashing, a float sort, map
// inserts and lookups keyed by strings, and faulting in fresh pages of
// memory, the kinds of work the phases do. It returns a value derived from
// all of it so that none is elided.
func (s *refState) work() uint64 {
	var acc uint64
	if b, err := syscall.Mmap(-1, 0, refPages*4096, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		for i := 0; i < len(b); i += 4096 {
			b[i] = byte(i)
		}
		acc += uint64(b[4096])
		syscall.Munmap(b)
	}
	for i := 0; i < 8; i++ {
		sum := sha256.Sum256(s.buf)
		acc += binary.LittleEndian.Uint64(sum[:])
		s.buf[i] ^= sum[1]
	}
	x := acc | 1
	for i := range s.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.xs[i] = math.Log1p(float64(x>>11) / (1 << 53))
	}
	sort.Float64s(s.xs)
	clear(s.m)
	for i, k := range s.keys {
		s.m[k] = s.vals[i]
	}
	for _, k := range s.keys {
		acc += uint64(len(s.m[k]))
	}
	return acc + math.Float64bits(s.xs[len(s.xs)/2])
}

// seconds runs the reference workload on one locked OS thread and returns
// that thread's CPU seconds.
func (s *refState) seconds() float64 {
	d := make(chan float64)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := cpuClock(clockThread)
		var acc uint64
		for k := 0; k < 10; k++ {
			acc += s.work()
		}
		s.buf[0] ^= byte(acc)
		d <- cpuClock(clockThread) - start
	}()
	return <-d
}

const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock in seconds, or 0 if it cannot.
func cpuClock(id int) float64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// clock times one stretch and its steal factor.
type clock struct {
	start  time.Time
	cpu0   float64
	steal0 int64
}

func startClock() clock {
	steal, _ := cpuTicks()
	return clock{start: time.Now(), cpu0: cpuClock(clockProcess), steal0: steal}
}

// stop returns the stretch's wall seconds and its steal factor.
func (c clock) stop() (wall, steal float64) {
	wall = time.Since(c.start).Seconds()
	cpu := cpuClock(clockProcess) - c.cpu0
	steal1, _ := cpuTicks()
	if cpu <= 0 {
		return wall, 1
	}
	return wall, (cpu + float64(steal1-c.steal0)/clkTck) / cpu
}

// speedAround runs f between two timings of the reference workload and
// returns the speed factor: their mean over refNominal.
func speedAround(ref *refState, f func() error) (float64, error) {
	r0 := ref.seconds()
	err := f()
	return (r0 + ref.seconds()) / 2 / refNominal, err
}

// series is one end-to-end metric's value per unit of a phase, with the
// steal factor of the stretch each value was timed in.
type series struct {
	vals, steal []float64
}

func (s *series) add(v, steal float64) {
	s.vals = append(s.vals, v)
	s.steal = append(s.steal, steal)
}

// hostScale turns one phase's series into metric values: the mean over
// units of each value scaled by its steal factor and its unit's speed
// factor. The unscaled means go to raw, for the human-readable output.
type hostScale struct {
	speed []float64 // per unit
	raw   *sheet
}

// rate sets a rate metric (work per second): a unit that ran at half the
// reference host's speed did half the work it would have done there.
func (h hostScale) rate(e2e *sheet, name, unit string, s series) {
	scaled := make([]float64, len(s.vals))
	for i, x := range s.vals {
		scaled[i] = x * s.steal[i] * h.speed[i]
	}
	e2e.set(name, unit, mean(scaled))
	h.raw.set(name, unit, mean(s.vals))
}

// time sets a time metric in seconds.
func (h hostScale) time(e2e *sheet, name string, s series) {
	scaled := make([]float64, len(s.vals))
	for i, x := range s.vals {
		scaled[i] = x / (s.steal[i] * h.speed[i])
	}
	e2e.set(name, "s", mean(scaled))
	h.raw.set(name, "s", mean(s.vals))
}
