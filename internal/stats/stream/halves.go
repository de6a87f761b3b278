package stream

import (
	"math"
	"math/bits"
	"slices"
)

// Halves incrementally maintains the first-half / second-half partition the
// paper's KS stopping rule compares (§V-C): after n observations the first
// half is xs[:n/2] and the second xs[n/2:]. KS answers
// stats.KSStatistic(stats.SplitHalves(xs)) bit for bit from block
// summaries, without visiting every sample.
//
// Layout. The samples settled so far are kept in one pooled sorted order
// (NaNs first and tied, as sort.Float64s orders them), each tagged
// first-half or second-half, and cut into blocks of at most blockCap
// samples. A block records, over its internal tie-group ends, the extremes
// of the running difference h = (#first) - (#second) and the first-half
// count i where they occur.
//
// Settling. Add only appends to the arrival queue: O(1). KS first settles
// the samples that arrived since the last query. It sorts them, and the
// settled samples that crossed the midpoint since, then walks the blocks
// once in order, stopping after the last one with work: each block takes
// the new samples that sort into it (tagged second-half; a full block
// evens out with a successor that has room, shares a full one with a new
// block, or splits) and, for each crossing sample, retags the first
// second-half sample of that sample's tie group as first-half. Tied
// samples are interchangeable to KS, so which of them carries a tag does
// not matter. Each touched block is rescanned once; a block with no ties
// rescans from its tag word alone. When the new samples outnumber the
// settled ones (the first query, a first query after a large MinSamples, a
// meta rule that only now asks), KS rebuilds every block in one merge
// instead. A query after b new samples costs O(n/blockCap + b log b +
// b*blockCap) and no search over the blocks; a separate pass, with no call
// in it, then folds the summaries. BenchmarkHalves (4,000 bimodal samples,
// a query every 10) measures 1.26 rescans per sample and 0.59x the time
// per sample of settling every Add on arrival, which took two binary
// searches and 1.7 rescans per sample (2-vCPU Xeon, 10 alternating runs).
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
	n, ns int        // observations, and those settled into the blocks
	queue []float64  // xs[ns/2:] in arrival order: the settled second half, then the pending samples
	index []blockSum // one per block, in ascending sample order
	store []hblock   // block samples, in allocation order
	// KS scratch: the pending samples and the crossing ones, sorted; the
	// largest gap of each block.
	ins, pro []float64
	gaps     []int64
}

// blockCap is the most samples a block holds; at most 64, the width of a
// block's tag mask. Larger blocks mean fewer summaries to fold per query
// and longer inserts and rescans per touched block: on BenchmarkHalves, 40
// to 56 ran about 5% faster than 32, 16 ran 11% slower and 64 no faster
// than 48.
const blockCap = 48

// rebuildFill is the number of samples a rebuild puts in each block,
// leaving room for the inserts of later queries.
const rebuildFill = blockCap * 3 / 4

// blockSum summarizes one block of the pooled sorted order.
type blockSum struct {
	first, last float64 // smallest and largest sample
	s           int32   // samples: store[s]
	n, sumA     int32   // samples held, first-half samples held
	ties        bool    // two adjacent samples may tie; false: none do
	end         bool    // the last sample ends a tie group
	tags        uint64  // bit t set: the block's sample t is in the first half
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
	vals [blockCap]float64
}

// Add feeds the next observation.
func (h *Halves) Add(x float64) {
	h.n++
	h.queue = append(h.queue, x)
}

// KS returns the two-sample Kolmogorov-Smirnov statistic between the two
// halves, bit-identical to stats.KSStatistic(stats.SplitHalves(xs)).
func (h *Halves) KS() float64 {
	na, nb := int64(h.n/2), int64(h.n-h.n/2)
	if na == 0 {
		return 1
	}
	h.settle()
	var i, j int64 // counts before the current block
	var ks float64
	if na*nb >= 1<<40 {
		for p, m := range h.index {
			ks = max(ks, h.walk(p, i, j, na, nb, -1))
			i, j = i+int64(m.sumA), j+int64(m.n-m.sumA)
		}
		return ks
	}
	best := h.fold(na, nb)
	for p, g := range h.gaps {
		if g == best {
			ks = max(ks, h.walk(p, i, j, na, nb, best))
		}
		m := &h.index[p]
		i, j = i+int64(m.sumA), j+int64(m.n-m.sumA)
	}
	return ks
}

// settle applies the samples that arrived since the last query to the
// blocks, in one ordered pass or, for a batch that outnumbers the settled
// samples, in a rebuild.
func (h *Halves) settle() {
	settled := h.ns
	st := work{ins: h.ins, pro: h.pro}
	h.pending(&st)
	if len(st.ins) > settled {
		h.rebuild(st.ins, st.pro)
		return
	}
	if !st.busy() {
		return
	}
	index, next := h.index, st.next
	for p := 0; p < len(index); p++ {
		// A block is due when it owes a rescan or the smallest insert or
		// promotion left does not sort after the next block's first sample.
		if st.stale == 0 && p+1 < len(index) && before(index[p+1].first, next) {
			continue
		}
		h.settleBlock(p, &st)
		if !st.busy() {
			return
		}
		index, next = h.index, st.next
	}
}

// fold stores in h.gaps the largest gap |i*nb - j*na| over the tie-group
// ends of each block and returns the largest of them, at least 1. It makes
// no call and does not branch on the running maximum, so its counters stay
// in registers; KS then evaluates only the blocks that reach the returned
// gap.
func (h *Halves) fold(na, nb int64) int64 {
	index := h.index
	if cap(h.gaps) < len(index) {
		h.gaps = make([]int64, 0, cap(index))
	}
	gaps := h.gaps[:len(index)]
	h.gaps = gaps
	// In terms of h = i - j, the gap i*nb - j*na is na*h + (nb-na)*i.
	d := nb - na
	var h0, i int64 // h and the first-half count before the current block
	best := int64(1)
	for p := range index {
		m := &index[p]
		eh, ei := h0+int64(2*m.sumA-m.n), i+int64(m.sumA)
		g := int64(0)
		if m.end {
			g = abs64(na*eh + d*ei)
		}
		if m.hiKey >= m.loKey {
			hi := na*(h0+m.hiKey>>32) + d*(i+int64(uint32(m.hiKey)))
			lo := na*(h0+m.loKey>>32) + d*(i+int64(uint32(m.loKey)))
			g = max(g, hi, -lo)
		}
		gaps[p] = g
		best = max(best, g)
		h0, i = eh, ei
	}
	return best
}

// setEnd records whether the last sample of the block at index position p
// ends a tie group. Only settling p changes p's last sample or, by moving
// samples into the next block or opening one, the next block's first.
func (h *Halves) setEnd(p int) {
	m := &h.index[p]
	m.end = p+1 == len(h.index) || !same(m.last, h.index[p+1].first)
}

// work is what one KS query has left to apply to the blocks: sorted
// samples to insert as second-half, sorted values whose tie group gives one
// second-half sample to the first half, and the number of blocks right
// after the current one that splits created and that still need a rescan.
type work struct {
	ins, pro []float64
	stale    int
	next     float64 // the smaller of ins[0] and pro[0], while busy
}

// busy reports whether st has work left and updates next.
func (st *work) busy() bool {
	switch {
	case len(st.ins) == 0 && len(st.pro) == 0:
		return st.stale > 0
	case len(st.ins) == 0:
		st.next = st.pro[0]
	case len(st.pro) == 0 || before(st.ins[0], st.pro[0]):
		st.next = st.ins[0]
	default:
		st.next = st.pro[0]
	}
	return true
}

// pending moves the samples that arrived since the last query into st, with
// the samples that crossed the midpoint since, and marks them settled.
func (h *Halves) pending(st *work) {
	cross := h.n/2 - h.ns/2
	st.ins = append(st.ins[:0], h.queue[len(h.queue)-(h.n-h.ns):]...)
	st.pro = append(st.pro[:0], h.queue[:cross]...)
	h.queue = h.queue[cross:]
	h.ns = h.n
	slices.Sort(st.ins)
	slices.Sort(st.pro)
	h.ins, h.pro = st.ins, st.pro
}

// settleBlock applies to the block at index position p the inserts that
// sort into it and the promotions it can take, and rescans it if either
// changed it. An insert sorts into p when it does not sort after the next
// block's first sample, so no insert changes the first sample of any block
// but the first. A promotion whose tie group has no second-half sample left
// in p carries over to the next block, where the group continues.
func (h *Halves) settleBlock(p int, st *work) {
	touched := st.stale > 0
	if touched {
		st.stale--
	}
	k := 0 // inserts land at or after offset k
settling:
	for len(st.ins) > 0 && h.takes(p, st.ins[0]) {
		x := st.ins[0]
		m := &h.index[p]
		b := &h.store[m.s]
		if m.n == blockCap {
			for k < blockCap && !before(x, b.vals[k]) {
				k++
			}
			touched = true
			switch {
			case p+1 < len(h.index) && h.index[p+1].n <= blockCap-2:
				// The next block has room: even out the pair.
				h.rebalance(p, (blockCap+int(h.index[p+1].n))/2)
				st.stale = max(st.stale, 1)
			case k == 0:
				// x sorts before the whole block (p is the first block): it
				// goes to a new block before it.
				h.index = slices.Insert(h.index, p, blockSum{s: h.alloc()})
				continue
			default:
				h.index = slices.Insert(h.index, p+1, blockSum{s: h.alloc(), first: x})
				st.stale++
				switch {
				case k == blockCap:
					// x sorts after the whole block: it and the rest of
					// the inserts go to the new block, so sorted arrival
					// leaves full blocks behind.
					break settling
				case p+2 < len(h.index):
					// The next block is full too: the new block takes a
					// third of both.
					c := (blockCap + int(h.index[p+2].n)) / 3
					h.rebalance(p, c)
					h.rebalance(p+1, c)
					st.stale = max(st.stale, 2)
				default:
					h.rebalance(p, blockCap/2)
				}
			}
			k = min(k, int(h.index[p].n)) // x may still tie the next block's new first
			continue
		}
		// Shift the samples x sorts before up by one, from the top.
		t := int(m.n)
		for ; t > k && before(x, b.vals[t-1]); t-- {
			b.vals[t] = b.vals[t-1]
		}
		b.vals[t] = x
		m.n++
		if t > 0 && same(b.vals[t-1], x) || t+1 < int(m.n) && same(x, b.vals[t+1]) {
			m.ties = true
		}
		low := uint64(1)<<t - 1
		m.tags = m.tags&low | (m.tags&^low)<<1
		k = t + 1
		st.ins = st.ins[1:]
		touched = true
	}
	m := &h.index[p]
	b := &h.store[m.s]
	v := b.vals[:m.n]
	for k := 0; len(st.pro) > 0 && !before(v[len(v)-1], st.pro[0]); {
		y := st.pro[0]
		for k < len(v) && before(v[k], y) {
			k++
		}
		e := k
		for e < len(v) && same(v[e], y) {
			e++
		}
		free := ^m.tags & (uint64(1)<<e - 1) &^ (uint64(1)<<k - 1)
		if free == 0 {
			break // y's group continues in the next block, or y sorts after p
		}
		m.tags |= free & -free
		st.pro = st.pro[1:]
		touched = true
	}
	if touched {
		h.rescan(p)
		h.setEnd(p)
	}
}

// takes reports whether an insert of x sorts into the block at index
// position p: whether p is the last block or x does not sort after the next
// block's first sample.
func (h *Halves) takes(p int, x float64) bool {
	return p+1 == len(h.index) || !before(h.index[p+1].first, x)
}

// rebalance moves samples between the blocks at index positions q and q+1
// so that q holds the first c of their samples, and leaves both summaries
// but q+1's first sample for the caller to rescan.
func (h *Halves) rebalance(q, c int) {
	lo, hi := &h.index[q], &h.index[q+1]
	lb, hb := &h.store[lo.s], &h.store[hi.s]
	nl, nh := int(lo.n), int(hi.n)
	// The pair across the cut may tie; it can end up inside either block.
	ties := lo.ties || hi.ties || nl > 0 && nh > 0 && same(lb.vals[nl-1], hb.vals[0])
	if r := nl - c; r > 0 {
		copy(hb.vals[r:nh+r], hb.vals[:nh])
		copy(hb.vals[:r], lb.vals[c:nl])
		hi.tags = hi.tags<<r | lo.tags>>c
		lo.tags &= uint64(1)<<c - 1
	} else if r < 0 {
		r = -r
		copy(lb.vals[nl:c], hb.vals[:r])
		copy(hb.vals[:nh-r], hb.vals[r:nh])
		lo.tags |= hi.tags & (uint64(1)<<r - 1) << nl
		hi.tags >>= r
	}
	lo.n, hi.n = int32(c), int32(nl+nh-c)
	lo.ties, hi.ties = ties, ties
	hi.first = hb.vals[0]
}

// alloc appends an empty block to the store and returns its position.
func (h *Halves) alloc() int32 {
	if len(h.store) == cap(h.store) {
		// Grow by a quarter rather than append's doubling: blocks are
		// large and a campaign's count is known only at its end.
		h.store = append(make([]hblock, 0, len(h.store)+len(h.store)/4+4), h.store...)
	}
	h.store = append(h.store, hblock{})
	return int32(len(h.store) - 1)
}

// rebuild merges the blocks with the sorted inserts into fresh blocks of
// rebuildFill samples, applying the promotions on the way: each one tags
// the first second-half sample of its tie group.
func (h *Halves) rebuild(ins, pro []float64) {
	nblk := (h.n + rebuildFill - 1) / rebuildFill
	store := make([]hblock, nblk, nblk+nblk/4+4)
	index := make([]blockSum, nblk, cap(store))
	p, t := 0, 0 // the next settled sample: block index position, offset
	for w := 0; w < h.n; w++ {
		var x float64
		var a uint64
		if p < len(h.index) && (len(ins) == 0 || !before(ins[0], h.store[h.index[p].s].vals[t])) {
			m := &h.index[p]
			b := &h.store[m.s]
			x, a = b.vals[t], m.tags>>t&1
			if t++; t == int(m.n) {
				p, t = p+1, 0
			}
		} else {
			x, ins = ins[0], ins[1:]
		}
		if a == 0 && len(pro) > 0 && same(pro[0], x) {
			a, pro = 1, pro[1:]
		}
		store[w/rebuildFill].vals[w%rebuildFill] = x
		index[w/rebuildFill].tags |= a << (w % rebuildFill)
	}
	h.store, h.index = store, index
	for q := range index {
		m := &index[q]
		m.s, m.n, m.ties = int32(q), int32(min(rebuildFill, h.n-q*rebuildFill)), true
		h.rescan(q)
	}
	for q := range index {
		h.setEnd(q)
	}
}

// walk visits the tie-group ends of the block at index position p, counting
// on from i first-half and j second-half samples before it, and returns the
// largest KS distance |i/na - j/nb| over the ends whose gap |i*nb - j*na|
// equals target (over every end when target < 0).
func (h *Halves) walk(p int, i, j, na, nb, target int64) float64 {
	m := &h.index[p]
	end := m.end
	b := &h.store[m.s]
	tags, v := m.tags, b.vals[:m.n]
	fna, fnb := float64(na), float64(nb)
	var ks float64
	for t := range v {
		a := int64(tags >> t & 1)
		i += a
		j += 1 - a
		if t+1 < len(v) {
			if m.ties && same(v[t], v[t+1]) {
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

// rescan recomputes the summary of the block at index position p. In a
// block with no ties every position is a tie-group end, so the extremes come
// from the tag word alone, a byte of it per table lookup; a block that may
// hold ties compares neighbors and learns whether it does.
func (h *Halves) rescan(p int) {
	m := &h.index[p]
	b := &h.store[m.s]
	tags, v := m.tags, b.vals[:m.n]
	hiKey, loKey := int64(math.MinInt64), int64(math.MaxInt64)
	if ends := len(v) - 1; !m.ties && ends > 0 {
		// Extremes as h<<8 | t, the order of keys: h and the offset t.
		var d int64 // h before offset q
		hi, lo := int64(math.MinInt64), int64(math.MaxInt64)
		for q := 0; q < ends; q += 8 {
			w, base := uint8(tags>>q), d<<8+int64(q)
			if r := ends - q; r < 8 {
				// Only the first r offsets are internal ends. Clear bits
				// after them walk h down, below the highest value so far,
				// and set bits walk it up, above the lowest.
				keep := uint8(1)<<r - 1
				hi = max(hi, base+int64(walks[w&keep].hi))
				lo = min(lo, base+int64(walks[w|^keep].lo))
				break
			}
			e := &walks[w]
			hi, lo = max(hi, base+int64(e.hi)), min(lo, base+int64(e.lo))
			d += int64(e.sum)
		}
		hiKey, loKey = endKey(hi>>8, hi&255), endKey(lo>>8, lo&255)
	} else {
		var i, d int64
		ties := false
		for t := 0; t+1 < len(v); t++ {
			a := int64(tags >> t & 1)
			i += a
			d += 2*a - 1
			if m.ties && same(v[t], v[t+1]) {
				ties = true
				continue
			}
			key := d<<32 | i
			hiKey, loKey = max(hiKey, key), min(loKey, key)
		}
		m.ties = ties
	}
	m.first, m.last = v[0], v[len(v)-1]
	m.sumA = int32(bits.OnesCount64(tags))
	m.hiKey, m.loKey = hiKey, loKey
}

// endKey packs the running h at the block's offset t as a summary key:
// with i first-half and j second-half samples up to t, h = i-j and
// i+j = t+1.
func endKey(h, t int64) int64 { return h<<32 | (h+t+1)>>1 }

// walks[w] describes the running h over the eight offsets of a tag byte w,
// +1 per set bit and -1 per clear one: its highest value and the last
// offset reaching it as hi<<8 | offset, its lowest and the first offset
// reaching it as lo<<8 | offset, and its value after all eight.
var walks = func() (t [256]struct{ hi, lo, sum int16 }) {
	for w := range t {
		e := &t[w]
		hi, lo := int16(-9), int16(9)
		for k := range int16(8) {
			e.sum += 2*int16(w>>k&1) - 1
			if e.sum >= hi {
				hi, e.hi = e.sum, e.sum<<8|k
			}
			if e.sum < lo {
				lo, e.lo = e.sum, e.sum<<8|k
			}
		}
	}
	return t
}()

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
