package stream

import (
	"math"
	"math/bits"
)

// Halves incrementally maintains the first-half / second-half partition the
// paper's KS stopping rule compares (§V-C): after n observations the first
// half is xs[:n/2] and the second xs[n/2:]. KS answers
// stats.KSStatistic(stats.SplitHalves(xs)) bit for bit from block
// summaries, without visiting every sample.
//
// Layout. All n samples are kept in one pooled sorted order (NaNs first and
// tied, as sort.Float64s orders them), each tagged first-half or
// second-half, and cut into blocks of at most blockCap samples. A block
// records, over its internal tie-group ends, the extremes of the running
// difference h = (#first) - (#second) and the first-half count i where they
// occur.
//
// Add inserts the sample as second-half at the front of its tie group and,
// when the midpoint advances, retags the sample that crossed it. Tied
// samples are interchangeable to KS, so the retag takes the first
// second-half sample of that sample's tie group. Only the touched blocks
// are rescanned: O(log n + blockCap) per Add.
//
// KS. The KS distance at a tie-group end with counts (i, j) is
// |i/na - j/nb| = |i*nb - j*na| / (na*nb), so the largest distance is reached
// where the integer gap g = i*nb - j*na = na*h + (nb-na)*i is largest in
// magnitude. Folding the block summaries with running offsets gives the
// exact maximum of |g| in O(n/blockCap): for even n, g is na*h; for odd n,
// nb-na is 1 and, since i never exceeds na, one step down in h costs g at
// least as much as i can add, so the rightmost maximum of h (leftmost
// minimum) also maximizes (minimizes) g within its block. Float evaluation
// then happens only at the ends that reach that maximum, in the blocks that
// hold them; distinct gaps differ by at least 1/(na*nb) in distance, far
// more than rounding can move them while na*nb < 2^40, so the float maximum
// lies among those ends. From na*nb >= 2^40 on, KS evaluates every tie-group
// end instead.
type Halves struct {
	n     int        // observations
	queue []float64  // the second half, xs[n/2:], in arrival order
	index []blockSum // one per block, in ascending sample order
	store []hblock   // block samples, in allocation order
	cand  []gapEnd   // KS scratch: the blocks reaching the largest gap
}

// blockCap is the most samples a block holds; at most 64, the width of a
// block's tag mask.
const blockCap = 32

// blockSum summarizes one block of the pooled sorted order.
type blockSum struct {
	first, last float64 // smallest and largest sample
	s           int32   // samples: store[s]
	n, sumA     int32   // samples held, first-half samples held
	// Extremes of the running h, relative to the block start, over the
	// internal tie-group ends (every position but the last whose successor
	// differs), each packed with the relative first-half count i there as
	// h<<32 | i. Among ends with equal h, i grows left to right, so the
	// largest key is the rightmost maximum of h and the smallest the
	// leftmost minimum. hiKey < loKey when there is no internal end.
	hiKey, loKey int64
}

// hblock holds a block's samples in ascending order.
type hblock struct {
	tags uint64 // bit t set: vals[t] is in the first half
	vals [blockCap]float64
}

// gapEnd is a block that reaches the largest gap, with the first- and
// second-half counts before it and whether its last sample ends a tie group.
type gapEnd struct {
	p    int
	end  bool
	i, j int64
}

// Add feeds the next observation.
func (h *Halves) Add(x float64) {
	h.n++
	h.queue = append(h.queue, x)
	p := h.insert(x)
	if h.n%2 == 1 {
		h.rescan(p)
		return
	}
	// The midpoint advanced: xs[n/2-1] moves into the first half.
	q := h.promote(h.queue[0])
	h.queue = h.queue[1:]
	h.rescan(p)
	if q != p {
		h.rescan(q)
	}
}

// N returns the number of observations.
func (h *Halves) N() int { return h.n }

// KS returns the two-sample Kolmogorov-Smirnov statistic between the two
// halves, bit-identical to stats.KSStatistic(stats.SplitHalves(xs)).
func (h *Halves) KS() float64 {
	na, nb := int64(h.n/2), int64(h.n-h.n/2)
	if na == 0 {
		return 1
	}
	exact := na*nb < 1<<40
	d := nb - na
	var i, j int64 // counts before the current block
	var ks float64
	best := int64(1)
	cand := h.cand[:0]
	for p := range h.index {
		m := &h.index[p]
		end := p == len(h.index)-1 || !same(m.last, h.index[p+1].first)
		ei, ej := i+int64(m.sumA), j+int64(m.n-m.sumA)
		if !exact {
			ks = max(ks, h.walk(p, end, i, j, na, nb, -1))
			i, j = ei, ej
			continue
		}
		g := int64(0)
		if m.hiKey >= m.loKey {
			hi := na*(i-j+m.hiKey>>32) + d*(i+int64(uint32(m.hiKey)))
			lo := na*(i-j+m.loKey>>32) + d*(i+int64(uint32(m.loKey)))
			g = max(hi, -lo)
		}
		if end {
			g = max(g, abs64(ei*nb-ej*na))
		}
		if g >= best {
			if g > best {
				best, cand = g, cand[:0]
			}
			cand = append(cand, gapEnd{p: p, end: end, i: i, j: j})
		}
		i, j = ei, ej
	}
	h.cand = cand
	for _, c := range cand {
		ks = max(ks, h.walk(c.p, c.end, c.i, c.j, na, nb, best))
	}
	return ks
}

// walk visits the tie-group ends of the block at index position p, counting
// on from i first-half and j second-half samples before it, and returns the
// largest KS distance |i/na - j/nb| over the ends whose gap |i*nb - j*na|
// equals target (over every end when target < 0). end reports whether the
// block's last sample ends a tie group.
func (h *Halves) walk(p int, end bool, i, j, na, nb, target int64) float64 {
	m := &h.index[p]
	b := &h.store[m.s]
	tags, v := b.tags, b.vals[:m.n]
	fna, fnb := float64(na), float64(nb)
	var ks float64
	for t := range v {
		a := int64(tags >> t & 1)
		i += a
		j += 1 - a
		if t+1 < len(v) {
			if same(v[t], v[t+1]) {
				continue
			}
		} else if !end {
			continue
		}
		if target >= 0 && abs64(i*nb-j*na) != target {
			continue
		}
		ks = max(ks, math.Abs(float64(i)/fna-float64(j)/fnb))
	}
	return ks
}

// insert places x, tagged second-half, before every sample equal to it and
// returns the index position of its block.
func (h *Halves) insert(x float64) int {
	if len(h.index) == 0 {
		h.store = append(h.store, hblock{})
		h.index = append(h.index, blockSum{})
	}
	p, k := h.find(x)
	m := &h.index[p]
	if m.n == blockCap {
		p, k = h.makeRoom(p, k)
		m = &h.index[p]
	}
	b := &h.store[m.s]
	copy(b.vals[k+1:m.n+1], b.vals[k:m.n])
	b.vals[k] = x
	low := uint64(1)<<k - 1
	b.tags = b.tags&low | (b.tags&^low)<<1
	m.n++
	// promote locates blocks by their bounds before Add rescans this one.
	m.first, m.last = b.vals[0], b.vals[m.n-1]
	return p
}

// makeRoom frees space for an insert at index k of the full block at index
// position p, rescans whichever block will not receive the insert, and
// returns the insert's new position. When a neighbor has room for two more
// samples, the emptier one shares the pair's samples evenly with p. Otherwise
// p splits into a new right neighbor: evenly, or everything past k when k is
// at either edge, so sorted arrival leaves full blocks behind.
func (h *Halves) makeRoom(p, k int) (int, int) {
	q, pos := p, k // the pair (q, q+1) that makes room, and the insert's offset in it
	roomL, roomR := 0, 0
	if p > 0 {
		roomL = blockCap - int(h.index[p-1].n)
	}
	if p+1 < len(h.index) {
		roomR = blockCap - int(h.index[p+1].n)
	}
	var c int // samples q keeps
	if max(roomL, roomR) >= 2 {
		if roomL > roomR {
			q, pos = p-1, int(h.index[p-1].n)+k
		}
		c = (int(h.index[q].n) + int(h.index[q+1].n)) / 2
	} else {
		switch k {
		case 0:
			c = 0
		case blockCap:
			c = blockCap
		default:
			c = blockCap / 2
		}
		if len(h.store) == cap(h.store) {
			// Grow by a quarter rather than append's doubling: blocks are
			// large and a campaign's count is known only at its end.
			h.store = append(make([]hblock, 0, len(h.store)+len(h.store)/4+4), h.store...)
		}
		h.store = append(h.store, hblock{})
		h.index = append(h.index, blockSum{})
		copy(h.index[p+2:], h.index[p+1:])
		h.index[p+1] = blockSum{s: int32(len(h.store) - 1)}
	}
	h.rebalance(q, c)
	if pos < c || pos == c && c < blockCap {
		h.rescan(q + 1)
		return q, pos
	}
	h.rescan(q)
	return q + 1, pos - c
}

// rebalance moves samples between the adjacent blocks at index positions q
// and q+1 so that q holds the first c of their samples.
func (h *Halves) rebalance(q, c int) {
	lo, hi := &h.index[q], &h.index[q+1]
	lb, hb := &h.store[lo.s], &h.store[hi.s]
	nl, nh := int(lo.n), int(hi.n)
	if r := nl - c; r > 0 {
		copy(hb.vals[r:nh+r], hb.vals[:nh])
		copy(hb.vals[:r], lb.vals[c:nl])
		hb.tags = hb.tags<<r | lb.tags>>c
		lb.tags &= uint64(1)<<c - 1
	} else if r < 0 {
		r = -r
		copy(lb.vals[nl:c], hb.vals[:r])
		copy(hb.vals[:nh-r], hb.vals[r:nh])
		lb.tags |= hb.tags & (uint64(1)<<r - 1) << nl
		hb.tags >>= r
	}
	lo.n, hi.n = int32(c), int32(nl+nh-c)
}

// promote retags one second-half sample equal to v as first-half and
// returns the index position of its block. v's tie group holds a
// second-half sample (v's own), so the first one from the group's start on
// is in the group.
func (h *Halves) promote(v float64) int {
	p, k := h.find(v)
	for ; ; p, k = p+1, 0 {
		m := &h.index[p]
		b := &h.store[m.s]
		free := ^b.tags & (uint64(1)<<m.n - 1) &^ (uint64(1)<<k - 1)
		if free != 0 {
			b.tags |= free & -free
			return p
		}
	}
}

// find returns the position of the first sample that does not sort before
// x: a block's index position and an offset in it, which is the block's
// length when that sample starts the next block.
func (h *Halves) find(x float64) (p, k int) {
	lo, hi := 0, len(h.index)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(h.index[m].first, x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	p = max(lo-1, 0)
	v := h.store[h.index[p].s].vals[:h.index[p].n]
	lo, hi = 0, len(v)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(v[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return p, lo
}

// rescan recomputes the summary of the block at index position p.
func (h *Halves) rescan(p int) {
	m := &h.index[p]
	b := &h.store[m.s]
	tags, v := b.tags, b.vals[:m.n]
	var i, d int64
	hiKey, loKey := int64(math.MinInt64), int64(math.MaxInt64)
	for t := 0; t+1 < len(v); t++ {
		a := int64(tags >> t & 1)
		i += a
		d += 2*a - 1
		if same(v[t], v[t+1]) {
			continue
		}
		key := d<<32 | i
		hiKey, loKey = max(hiKey, key), min(loKey, key)
	}
	m.first, m.last = v[0], v[len(v)-1]
	m.sumA = int32(bits.OnesCount64(tags))
	m.hiKey, m.loKey = hiKey, loKey
}

// before reports whether x sorts before y in sort.Float64s order: NaNs
// first, all tied.
func before(x, y float64) bool { return x < y || x != x && y == y }

// same reports whether x and y tie in that order.
func same(x, y float64) bool { return x == y || x != x && y != y }

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
