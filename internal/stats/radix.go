package stats

import (
	"math"
	"unsafe"
)

// The radix kernel behind SortedCopy: an LSD radix sort of float64 values
// on order-preserving uint64 keys, in 11-bit digits (six passes at most).
//
// floatKey maps the bits of a float64 to a key whose unsigned order is the
// numeric order: a negative value's bits are complemented (a larger
// magnitude becomes a smaller key), a non-negative value's get the sign bit
// set (so they rank above every negative). The map is a bijection, so
// fromKey recovers the exact bits.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	radixPasses  = (64 + radixBits - 1) / radixBits
	signBit      = uint64(1) << 63
)

// radixCutoff is the shortest input SortedCopy radix-sorts. Below it the
// prefix sums over the digit buckets cost more than sort.Float64s saves:
// on a 2-vCPU Xeon, 1,024 normal samples sort in 14 µs by radix against
// 22 µs by sort.Float64s, 768 in 11 µs against 10 µs (BenchmarkRadixCutoff).
const radixCutoff = 1024

func floatKey(b uint64) uint64 { return b ^ (uint64(int64(b)>>63) | signBit) }

func fromKey(k uint64) uint64 { return k ^ (^uint64(int64(k)>>63) | signBit) }

// radixSort sorts s ascending in place and reports true, or leaves s as it
// was and reports false when s holds a NaN or zeros of both signs (see
// SortedCopy for why those keep sort.Float64s) or more values than a
// uint32 counts. s itself holds the keys while they are sorted, so the one
// other buffer is a scratch array of len(s) keys. A digit pass whose digit
// is the same for every key is skipped: it would move nothing, and
// measured values share their sign and most exponent bits.
func radixSort(s []float64) bool {
	n := len(s)
	if n < 2 {
		return true
	}
	if uint64(n) > math.MaxUint32 {
		return false
	}
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), n)
	var counts [radixPasses][radixBuckets]uint32
	var zeros uint8 // bit 0: a +0 seen, bit 1: a -0 seen
	for i, x := range s {
		if x != x {
			restoreKeys(keys[:i])
			return false
		}
		k := floatKey(math.Float64bits(x))
		switch k {
		case signBit:
			zeros |= 1
		case signBit - 1:
			zeros |= 2
		}
		keys[i] = k
		counts[0][k&radixMask]++
		counts[1][(k>>radixBits)&radixMask]++
		counts[2][(k>>(2*radixBits))&radixMask]++
		counts[3][(k>>(3*radixBits))&radixMask]++
		counts[4][(k>>(4*radixBits))&radixMask]++
		counts[5][k>>(5*radixBits)]++
	}
	if zeros == 3 {
		restoreKeys(keys)
		return false
	}
	src, dst := keys, make([]uint64, n)
	for p := range counts {
		c := &counts[p]
		shift := p * radixBits
		if int(c[(src[0]>>shift)&radixMask]) == n {
			continue
		}
		off := uint32(0)
		for d, m := range c {
			c[d] = off
			off += m
		}
		for _, k := range src {
			d := (k >> shift) & radixMask
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		s[i] = math.Float64frombits(fromKey(k))
	}
	return true
}

// restoreKeys turns keys written over float64 bits back into the values.
func restoreKeys(keys []uint64) {
	for i, k := range keys {
		keys[i] = fromKey(k)
	}
}
